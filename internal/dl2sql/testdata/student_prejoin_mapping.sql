-- Conv1
CREATE TEMP TABLE m_tmp_conv_2 AS SELECT B.KernelID * 16 + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_fm0_1 A INNER JOIN m_m_kernel1 B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID

-- Conv1
CREATE TEMP TABLE m_tmp_bias_3 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_conv_2 A, m_m_kernel1_bias B WHERE A.KernelID = B.KernelID

-- BN1
CREATE TEMP TABLE m_tmp_bn_4 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, ((A.Value - S.mu) / (S.sd + 5e-05)) AS Value FROM m_tmp_bias_3 A, (SELECT KernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM m_tmp_bias_3 GROUP BY KernelID) S WHERE A.KernelID = S.KernelID

-- ReLU1
UPDATE m_tmp_bn_4 SET Value = 0 WHERE Value < 0

-- Conv2
CREATE TEMP TABLE m_tmp_conv_5 AS SELECT K.KernelID * 4 + X.MatrixID AS TupleID, K.KernelID AS KernelID, SUM(X.Value * K.Value) AS Value FROM (SELECT B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM m_tmp_bn_4 A, m_m_kernel2_map B WHERE A.TupleID = B.TupleID) X INNER JOIN m_m_kernel2 K ON X.OrderID = K.OrderID GROUP BY K.KernelID, X.MatrixID

-- Conv2
CREATE TEMP TABLE m_tmp_bias_6 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_conv_5 A, m_m_kernel2_bias B WHERE A.KernelID = B.KernelID

-- BN2
CREATE TEMP TABLE m_tmp_bn_7 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, ((A.Value - S.mu) / (S.sd + 5e-05)) AS Value FROM m_tmp_bias_6 A, (SELECT KernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM m_tmp_bias_6 GROUP BY KernelID) S WHERE A.KernelID = S.KernelID

-- ReLU2
UPDATE m_tmp_bn_7 SET Value = 0 WHERE Value < 0

-- Conv3
CREATE TEMP TABLE m_tmp_conv_8 AS SELECT K.KernelID * 1 + X.MatrixID AS TupleID, K.KernelID AS KernelID, SUM(X.Value * K.Value) AS Value FROM (SELECT B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM m_tmp_bn_7 A, m_m_kernel3_map B WHERE A.TupleID = B.TupleID) X INNER JOIN m_m_kernel3 K ON X.OrderID = K.OrderID GROUP BY K.KernelID, X.MatrixID

-- Conv3
CREATE TEMP TABLE m_tmp_bias_9 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_conv_8 A, m_m_kernel3_bias B WHERE A.KernelID = B.KernelID

-- BN3
CREATE TEMP TABLE m_tmp_bn_10 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, ((A.Value - S.mu) / (S.sd + 5e-05)) AS Value FROM m_tmp_bias_9 A, (SELECT KernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM m_tmp_bias_9 GROUP BY KernelID) S WHERE A.KernelID = S.KernelID

-- ReLU3
UPDATE m_tmp_bn_10 SET Value = 0 WHERE Value < 0

-- Pool
CREATE TEMP TABLE m_tmp_gap_11 AS SELECT KernelID AS TupleID, KernelID AS KernelID, AVG(Value) AS Value FROM m_tmp_bn_10 GROUP BY KernelID

-- FC
CREATE TEMP TABLE m_tmp_fc_12 AS SELECT B.KernelID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_gap_11 A, m_m_fc4 B WHERE A.TupleID = B.OrderID GROUP BY B.KernelID

-- FC
CREATE TEMP TABLE m_tmp_bias_13 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_fc_12 A, m_m_fc4_bias B WHERE A.KernelID = B.KernelID

-- Classification
CREATE TEMP TABLE m_tmp_sm_14 AS SELECT TupleID, KernelID, exp(Value - (SELECT MAX(Value) FROM m_tmp_bias_13)) / (SELECT SUM(exp(Value - (SELECT MAX(Value) FROM m_tmp_bias_13))) FROM m_tmp_bias_13) AS Value FROM m_tmp_bias_13

-- Classification
SELECT TupleID, Value FROM m_tmp_sm_14 ORDER BY Value DESC, TupleID LIMIT 1

