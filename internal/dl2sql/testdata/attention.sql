-- FC
CREATE TEMP TABLE m_tmp_fc_2 AS SELECT B.KernelID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_flat0_1 A, m_m_attn1_score B WHERE A.TupleID = B.OrderID GROUP BY B.KernelID

-- Classification
CREATE TEMP TABLE m_tmp_sm_3 AS SELECT TupleID, KernelID, exp(Value - (SELECT MAX(Value) FROM m_tmp_fc_2)) / (SELECT SUM(exp(Value - (SELECT MAX(Value) FROM m_tmp_fc_2))) FROM m_tmp_fc_2) AS Value FROM m_tmp_fc_2

-- FC
CREATE TEMP TABLE m_tmp_fc_4 AS SELECT B.KernelID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM m_tmp_flat0_1 A, m_m_attn1_value B WHERE A.TupleID = B.OrderID GROUP BY B.KernelID

-- Attention
CREATE TEMP TABLE m_tmp_attn_5 AS SELECT A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value * B.Value AS Value FROM m_tmp_sm_3 A, m_tmp_fc_4 B WHERE A.TupleID = B.TupleID

-- Classification
CREATE TEMP TABLE m_tmp_sm_6 AS SELECT TupleID, KernelID, exp(Value - (SELECT MAX(Value) FROM m_tmp_attn_5)) / (SELECT SUM(exp(Value - (SELECT MAX(Value) FROM m_tmp_attn_5))) FROM m_tmp_attn_5) AS Value FROM m_tmp_attn_5

-- Classification
SELECT TupleID, Value FROM m_tmp_sm_6 ORDER BY Value DESC, TupleID LIMIT 1

