-- Conv1
CREATE TEMP TABLE m_tmp_conv_2 AS SELECT B.KernelID * 16 + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_fm0_1 A INNER JOIN m_m_kernel1 B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID

-- Conv1
CREATE TEMP TABLE m_tmp_bias_3 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_conv_2 A, m_m_kernel1_bias B WHERE A.KernelID = B.KernelID

-- BN1
CREATE TEMP TABLE m_tmp_bn_4 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, ((A.Value - S.mu) / (S.sd + 5e-05)) AS Value FROM m_tmp_bias_3 A, (SELECT KernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM m_tmp_bias_3 GROUP BY KernelID) S WHERE A.KernelID = S.KernelID

-- ReLU1
UPDATE m_tmp_bn_4 SET Value = 0 WHERE Value < 0

-- Reshape1
CREATE TEMP TABLE m_tmp_fm_5 AS SELECT B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM m_tmp_bn_4 A, m_m_kernel2_map B WHERE A.TupleID = B.TupleID

-- Conv2
CREATE TEMP TABLE m_tmp_conv_6 AS SELECT B.KernelID * 4 + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_fm_5 A INNER JOIN m_m_kernel2 B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID

-- Conv2
CREATE TEMP TABLE m_tmp_bias_7 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_conv_6 A, m_m_kernel2_bias B WHERE A.KernelID = B.KernelID

-- BN2
CREATE TEMP TABLE m_tmp_bn_8 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, ((A.Value - S.mu) / (S.sd + 5e-05)) AS Value FROM m_tmp_bias_7 A, (SELECT KernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM m_tmp_bias_7 GROUP BY KernelID) S WHERE A.KernelID = S.KernelID

-- ReLU2
UPDATE m_tmp_bn_8 SET Value = 0 WHERE Value < 0

-- Reshape2
CREATE TEMP TABLE m_tmp_fm_9 AS SELECT B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM m_tmp_bn_8 A, m_m_kernel3_map B WHERE A.TupleID = B.TupleID

-- Conv3
CREATE TEMP TABLE m_tmp_conv_10 AS SELECT B.KernelID * 1 + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_fm_9 A INNER JOIN m_m_kernel3 B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID

-- Conv3
CREATE TEMP TABLE m_tmp_bias_11 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_conv_10 A, m_m_kernel3_bias B WHERE A.KernelID = B.KernelID

-- BN3
CREATE TEMP TABLE m_tmp_bn_12 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, ((A.Value - S.mu) / (S.sd + 5e-05)) AS Value FROM m_tmp_bias_11 A, (SELECT KernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM m_tmp_bias_11 GROUP BY KernelID) S WHERE A.KernelID = S.KernelID

-- ReLU3
UPDATE m_tmp_bn_12 SET Value = 0 WHERE Value < 0

-- Pool
CREATE TEMP TABLE m_tmp_gap_13 AS SELECT KernelID AS TupleID, KernelID AS KernelID, AVG(Value) AS Value FROM m_tmp_bn_12 GROUP BY KernelID

-- FC
CREATE TEMP TABLE m_tmp_fc_14 AS SELECT B.KernelID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_gap_13 A, m_m_fc4 B WHERE A.TupleID = B.OrderID GROUP BY B.KernelID

-- FC
CREATE TEMP TABLE m_tmp_bias_15 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_fc_14 A, m_m_fc4_bias B WHERE A.KernelID = B.KernelID

-- Classification
CREATE TEMP TABLE m_tmp_sm_16 AS SELECT TupleID, KernelID, exp(Value - (SELECT MAX(Value) FROM m_tmp_bias_15)) / (SELECT SUM(exp(Value - (SELECT MAX(Value) FROM m_tmp_bias_15))) FROM m_tmp_bias_15) AS Value FROM m_tmp_bias_15

-- Classification
SELECT TupleID, Value FROM m_tmp_sm_16 ORDER BY Value DESC, TupleID LIMIT 1

