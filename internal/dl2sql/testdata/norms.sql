-- Conv1
CREATE TEMP TABLE m_tmp_conv_2 AS SELECT B.KernelID * 25 + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_fm0_1 A INNER JOIN m_m_kernel1 B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID

-- Conv1
CREATE TEMP TABLE m_tmp_bias_3 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_conv_2 A, m_m_kernel1_bias B WHERE A.KernelID = B.KernelID

-- BN1
CREATE TEMP TABLE m_tmp_bn_4 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, (P.Gamma * (A.Value - S.mu) / (S.sd + 5e-05)) + P.Beta AS Value FROM m_tmp_bias_3 A, (SELECT KernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM m_tmp_bias_3 GROUP BY KernelID) S, m_m_bnparams3 P WHERE A.KernelID = S.KernelID AND A.KernelID = P.KernelID

-- Pool
CREATE TEMP TABLE m_tmp_pool_5 AS SELECT B.KernelID * 16 + B.MatrixID AS TupleID, B.KernelID AS KernelID, MAX(A.Value) AS Value FROM m_tmp_bn_4 A, m_m_poolmap4 B WHERE A.TupleID = B.TupleID GROUP BY B.KernelID, B.MatrixID

-- Reshape1
CREATE TEMP TABLE m_tmp_fm_6 AS SELECT B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM m_tmp_pool_5 A, m_m_kernel2_map B WHERE A.TupleID = B.TupleID

-- Conv2
CREATE TEMP TABLE m_tmp_conv_7 AS SELECT B.KernelID * 16 + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_fm_6 A INNER JOIN m_m_kernel2 B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID

-- Conv2
CREATE TEMP TABLE m_tmp_bias_8 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM m_tmp_conv_7 A, m_m_kernel2_bias B WHERE A.KernelID = B.KernelID

-- BN2
CREATE TEMP TABLE m_tmp_bn_9 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, (P.Gamma * (A.Value - P.Mean) / sqrt(P.Var + 5e-05)) + P.Beta AS Value FROM m_tmp_bias_8 A, m_m_bnparams8 P WHERE A.KernelID = P.KernelID

-- Sigmoid
CREATE TEMP TABLE m_tmp_sig_10 AS SELECT TupleID, KernelID, 1 / (1 + exp(0 - Value)) AS Value FROM m_tmp_bn_9

-- Pool
CREATE TEMP TABLE m_tmp_pool_11 AS SELECT B.KernelID * 4 + B.MatrixID AS TupleID, B.KernelID AS KernelID, AVG(A.Value) AS Value FROM m_tmp_sig_10 A, m_m_poolmap9 B WHERE A.TupleID = B.TupleID GROUP BY B.KernelID, B.MatrixID

-- BN2
CREATE TEMP TABLE m_tmp_bn_12 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, ((A.Value - S.mu) / (S.sd + 5e-05)) AS Value FROM m_tmp_pool_11 A, (SELECT KernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM m_tmp_pool_11 GROUP BY KernelID) S WHERE A.KernelID = S.KernelID

-- Classification
SELECT TupleID, Value FROM m_tmp_bn_12 ORDER BY Value DESC, TupleID LIMIT 1

