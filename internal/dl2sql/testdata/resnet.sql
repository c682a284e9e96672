-- Conv1
CREATE TEMP TABLE m_tmp_conv_2 AS SELECT B.KernelID * 16 + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_fm0_1 A INNER JOIN m_m_kernel1 B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID

-- Conv1
CREATE TEMP TABLE m_tmp_bias_3 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_conv_2 A, m_m_kernel1_bias B WHERE A.KernelID = B.KernelID

-- BN1
CREATE TEMP TABLE m_tmp_bn_4 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, ((A.Value - S.mu) / (S.sd + 5e-05)) AS Value FROM m_tmp_bias_3 A, (SELECT KernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM m_tmp_bias_3 GROUP BY KernelID) S WHERE A.KernelID = S.KernelID

-- ReLU1
UPDATE m_tmp_bn_4 SET Value = 0 WHERE Value < 0

-- Pool
CREATE TEMP TABLE m_tmp_pool_5 AS SELECT B.KernelID * 4 + B.MatrixID AS TupleID, B.KernelID AS KernelID, MAX(A.Value) AS Value FROM m_tmp_bn_4 A, m_m_poolmap3 B WHERE A.TupleID = B.TupleID GROUP BY B.KernelID, B.MatrixID

-- Reshape1
CREATE TEMP TABLE m_tmp_fm_6 AS SELECT B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM m_tmp_pool_5 A, m_mrm_kernel2_map B WHERE A.TupleID = B.TupleID

-- Conv2
CREATE TEMP TABLE m_tmp_conv_7 AS SELECT B.KernelID * 1 + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_fm_6 A INNER JOIN m_mrm_kernel2 B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID

-- Conv2
CREATE TEMP TABLE m_tmp_bias_8 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_conv_7 A, m_mrm_kernel2_bias B WHERE A.KernelID = B.KernelID

-- BN2
CREATE TEMP TABLE m_tmp_bn_9 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, ((A.Value - S.mu) / (S.sd + 5e-05)) AS Value FROM m_tmp_bias_8 A, (SELECT KernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM m_tmp_bias_8 GROUP BY KernelID) S WHERE A.KernelID = S.KernelID

-- ReLU2
UPDATE m_tmp_bn_9 SET Value = 0 WHERE Value < 0

-- Reshape2
CREATE TEMP TABLE m_tmp_fm_10 AS SELECT B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM m_tmp_bn_9 A, m_mrm_kernel3_map B WHERE A.TupleID = B.TupleID

-- Conv3
CREATE TEMP TABLE m_tmp_conv_11 AS SELECT B.KernelID * 1 + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_fm_10 A INNER JOIN m_mrm_kernel3 B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID

-- Conv3
CREATE TEMP TABLE m_tmp_bias_12 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_conv_11 A, m_mrm_kernel3_bias B WHERE A.KernelID = B.KernelID

-- BN3
CREATE TEMP TABLE m_tmp_bn_13 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, ((A.Value - S.mu) / (S.sd + 5e-05)) AS Value FROM m_tmp_bias_12 A, (SELECT KernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM m_tmp_bias_12 GROUP BY KernelID) S WHERE A.KernelID = S.KernelID

-- Reshape3
CREATE TEMP TABLE m_tmp_fm_14 AS SELECT B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM m_tmp_pool_5 A, m_mrs_kernel4_map B WHERE A.TupleID = B.TupleID

-- Conv4
CREATE TEMP TABLE m_tmp_conv_15 AS SELECT B.KernelID * 1 + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_fm_14 A INNER JOIN m_mrs_kernel4 B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID

-- Conv4
CREATE TEMP TABLE m_tmp_bias_16 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_conv_15 A, m_mrs_kernel4_bias B WHERE A.KernelID = B.KernelID

-- BN4
CREATE TEMP TABLE m_tmp_bn_17 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, ((A.Value - S.mu) / (S.sd + 5e-05)) AS Value FROM m_tmp_bias_16 A, (SELECT KernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM m_tmp_bias_16 GROUP BY KernelID) S WHERE A.KernelID = S.KernelID

-- Residual4
CREATE TEMP TABLE m_tmp_res_18 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_bn_13 A, m_tmp_bn_17 B WHERE A.TupleID = B.TupleID

-- ReLU4
UPDATE m_tmp_res_18 SET Value = 0 WHERE Value < 0

-- Pool
CREATE TEMP TABLE m_tmp_gap_19 AS SELECT KernelID AS TupleID, KernelID AS KernelID, AVG(Value) AS Value FROM m_tmp_res_18 GROUP BY KernelID

-- FC
CREATE TEMP TABLE m_tmp_fc_20 AS SELECT B.KernelID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_gap_19 A, m_m_fc5 B WHERE A.TupleID = B.OrderID GROUP BY B.KernelID

-- FC
CREATE TEMP TABLE m_tmp_bias_21 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_fc_20 A, m_m_fc5_bias B WHERE A.KernelID = B.KernelID

-- Classification
CREATE TEMP TABLE m_tmp_sm_22 AS SELECT TupleID, KernelID, exp(Value - (SELECT MAX(Value) FROM m_tmp_bias_21)) / (SELECT SUM(exp(Value - (SELECT MAX(Value) FROM m_tmp_bias_21))) FROM m_tmp_bias_21) AS Value FROM m_tmp_bias_21

-- Classification
SELECT TupleID, Value FROM m_tmp_sm_22 ORDER BY Value DESC, TupleID LIMIT 1

