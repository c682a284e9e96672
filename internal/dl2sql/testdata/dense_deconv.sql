-- Reshape0
CREATE TEMP TABLE m_tmp_fm_2 AS SELECT B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM m_tmp_flat0_1 A, m_md0_kernel1_map B WHERE A.TupleID = B.TupleID

-- Conv1
CREATE TEMP TABLE m_tmp_conv_3 AS SELECT B.KernelID * 16 + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_fm_2 A INNER JOIN m_md0_kernel1 B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID

-- Conv1
CREATE TEMP TABLE m_tmp_bias_4 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_conv_3 A, m_md0_kernel1_bias B WHERE A.KernelID = B.KernelID

-- Dense1
CREATE TEMP TABLE m_tmp_cat_5 AS SELECT TupleID, KernelID, Value FROM m_tmp_flat0_1;
			 INSERT INTO m_tmp_cat_5 (SELECT TupleID + 32, KernelID + 2, Value FROM m_tmp_bias_4);

-- Reshape1
CREATE TEMP TABLE m_tmp_fm_6 AS SELECT B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM m_tmp_cat_5 A, m_md1_kernel2_map B WHERE A.TupleID = B.TupleID

-- Conv2
CREATE TEMP TABLE m_tmp_conv_7 AS SELECT B.KernelID * 16 + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_fm_6 A INNER JOIN m_md1_kernel2 B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID

-- Conv2
CREATE TEMP TABLE m_tmp_bias_8 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_conv_7 A, m_md1_kernel2_bias B WHERE A.KernelID = B.KernelID

-- Dense2
CREATE TEMP TABLE m_tmp_cat_9 AS SELECT TupleID, KernelID, Value FROM m_tmp_cat_5;
			 INSERT INTO m_tmp_cat_9 (SELECT TupleID + 64, KernelID + 4, Value FROM m_tmp_bias_8);

-- Deconv3
CREATE TEMP TABLE m_tmp_deconv_10 AS SELECT C.KernelID * 64 + C.OutID AS TupleID, C.KernelID AS KernelID, SUM(A.Value * C.Weight) AS Value FROM m_tmp_cat_9 A, m_m_deconv3 C WHERE A.TupleID = C.TupleID GROUP BY C.KernelID, C.OutID

-- Deconv3
CREATE TEMP TABLE m_tmp_bias_11 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_deconv_10 A, m_m_deconv3_bias B WHERE A.KernelID = B.KernelID

-- Pool
CREATE TEMP TABLE m_tmp_gap_12 AS SELECT KernelID AS TupleID, KernelID AS KernelID, AVG(Value) AS Value FROM m_tmp_bias_11 GROUP BY KernelID

-- FC
CREATE TEMP TABLE m_tmp_fc_13 AS SELECT B.KernelID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_gap_12 A, m_m_fc4 B WHERE A.TupleID = B.OrderID GROUP BY B.KernelID

-- FC
CREATE TEMP TABLE m_tmp_bias_14 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_fc_13 A, m_m_fc4_bias B WHERE A.KernelID = B.KernelID

-- Classification
CREATE TEMP TABLE m_tmp_sm_15 AS SELECT TupleID, KernelID, exp(Value - (SELECT MAX(Value) FROM m_tmp_bias_14)) / (SELECT SUM(exp(Value - (SELECT MAX(Value) FROM m_tmp_bias_14))) FROM m_tmp_bias_14) AS Value FROM m_tmp_bias_14

-- Classification
SELECT TupleID, Value FROM m_tmp_sm_15 ORDER BY Value DESC, TupleID LIMIT 1

