"""Curated benchmarks: the paper's own published examples.

* ``academic/motivating`` — the Section-2 SemMedDB pair (Figures 2-4): the
  WITH-pipeline Cypher query double counts relative to the IN-subquery SQL
  query; Graphiti refutes it (the paper's flagship bug).
* ``academic/motivating-fixed`` — the Appendix-C corrected Cypher query
  using EXISTS, equivalent to the same SQL.
* ``tutorial/neo4j-volume`` — the Neo4j-tutorial bug from Appendix D(2):
  OPTIONAL MATCH over a whole path vs chained LEFT JOINs, not equivalent
  because dangling intermediate rows survive on the SQL side.
* ``veriql/emp-dept-join`` — the Appendix D(3) bug: the student's Cypher
  traverses WORK_AT although the SQL join relates EmpNo to DeptNo directly;
  the paper's Figure-23 counterexample refutes it.
* ``tutorial/emp-count`` — Example 3.4's department head-count query, a
  correct translation over the Figure-14 schema.
"""

from __future__ import annotations

from repro.benchmarks.spec import (
    Benchmark,
    EdgeTableMap,
    MergedEdgeMap,
    NodeMap,
    Universe,
    schema_of,
)
from repro.graph.schema import EdgeType, GraphSchema, NodeType
from repro.relational.schema import Relation


# ---------------------------------------------------------------------------
# SemMedDB (Figures 2-5)
# ---------------------------------------------------------------------------

SEMMED = Universe(
    name="semmed",
    graph_schema=GraphSchema.of(
        [
            NodeType("CONCEPT", ("CID", "NAME")),
            NodeType("PA", ("PID", "PACSID")),
            NodeType("SENTENCE", ("SID", "PMID")),
        ],
        [
            EdgeType("CS", "CONCEPT", "PA", ("CSID",)),
            EdgeType("SP", "PA", "SENTENCE", ("SPID",)),
        ],
    ),
    relational_schema=schema_of(
        [
            Relation("Concept", ("CID", "NAME")),
            Relation("Cs", ("CSID", "CsCID", "CsPID")),
            Relation("Pa", ("PID", "PACSID")),
            Relation("Sp", ("SPID", "SpPID", "SpSID")),
            Relation("Sentence", ("SID", "PMID")),
        ],
        pks=[
            ("Concept", "CID"),
            ("Cs", "CSID"),
            ("Pa", "PID"),
            ("Sp", "SPID"),
            ("Sentence", "SID"),
        ],
        fks=[
            ("Cs", "CsCID", "Concept", "CID"),
            ("Cs", "CsPID", "Pa", "PID"),
            ("Sp", "SpPID", "Pa", "PID"),
            ("Sp", "SpSID", "Sentence", "SID"),
        ],
        nns=[
            ("Cs", "CsCID"),
            ("Cs", "CsPID"),
            ("Sp", "SpPID"),
            ("Sp", "SpSID"),
        ],
    ),
    transformer_text="""
        CONCEPT(cid, name) -> Concept(cid, name)
        CS(csid, cid, pid) -> Cs(csid, cid, pid)
        PA(pid, pacsid) -> Pa(pid, pacsid)
        SP(spid, pid, sid) -> Sp(spid, pid, sid)
        SENTENCE(sid, pmid) -> Sentence(sid, pmid)
    """,
    nodes={
        "CONCEPT": NodeMap("CONCEPT", "Concept", {"CID": "CID", "NAME": "NAME"}),
        "PA": NodeMap("PA", "Pa", {"PID": "PID", "PACSID": "PACSID"}),
        "SENTENCE": NodeMap("SENTENCE", "Sentence", {"SID": "SID", "PMID": "PMID"}),
    },
    edges={
        "CS": EdgeTableMap("CS", "Cs", {"CSID": "CSID"}, "CsCID", "CsPID"),
        "SP": EdgeTableMap("SP", "Sp", {"SPID": "SPID"}, "SpPID", "SpSID"),
    },
)

_MOTIVATING_SQL = """
SELECT c2.CsCID, COUNT(*) FROM Cs AS c2, Pa AS p2, Sp AS s2
WHERE c2.CsPID = p2.PID AND s2.SpPID = p2.PID AND s2.SpSID IN (
    SELECT s1.SpSID FROM Cs AS c1, Pa AS p1, Sp AS s1
    WHERE c1.CsPID = p1.PID AND s1.SpPID = p1.PID AND c1.CsCID = 1)
GROUP BY c2.CsCID
"""

_MOTIVATING_CYPHER = """
MATCH (c1:CONCEPT {CID: 1})-[r1:CS]->(p1:PA)-[r2:SP]->(s:SENTENCE)
WITH s
MATCH (s:SENTENCE)<-[r3:SP]-(p2:PA)<-[r4:CS]-(c2:CONCEPT)
RETURN c2.CID, Count(*)
"""

_MOTIVATING_CYPHER_FIXED = """
MATCH (s:SENTENCE)<-[r3:SP]-(p2:PA)<-[r4:CS]-(c2:CONCEPT)
WHERE EXISTS { MATCH (c1:CONCEPT {CID: 1})-[r1:CS]->(p1:PA)-[r2:SP]->(s:SENTENCE) }
RETURN c2.CID, Count(*)
"""


# ---------------------------------------------------------------------------
# Northwind slice (Appendix D example 2 — the Neo4j tutorial bug)
# ---------------------------------------------------------------------------

NORTHWIND = Universe(
    name="northwind",
    graph_schema=GraphSchema.of(
        [
            NodeType("CUST", ("CustomerID", "CompanyName")),
            NodeType("ORD", ("OrderID", "Freight")),
            NodeType("PROD", ("ProductID", "ProductName")),
        ],
        [
            EdgeType("PURCHASED", "CUST", "ORD", ("PuID",)),
            EdgeType("ORDERDETAILS", "ORD", "PROD", ("OdID", "UnitPrice", "Quantity")),
        ],
    ),
    relational_schema=schema_of(
        [
            Relation("Customers", ("CustomerID", "CompanyName")),
            Relation("Orders", ("OrderID", "Freight", "OCustomerID")),
            Relation("OrderDetails", ("OdID", "UnitPrice", "Quantity", "OOrderID", "OProductID")),
            Relation("Products", ("ProductID", "ProductName")),
        ],
        pks=[
            ("Customers", "CustomerID"),
            ("Orders", "OrderID"),
            ("OrderDetails", "OdID"),
            ("Products", "ProductID"),
        ],
        fks=[
            ("Orders", "OCustomerID", "Customers", "CustomerID"),
            ("OrderDetails", "OOrderID", "Orders", "OrderID"),
            ("OrderDetails", "OProductID", "Products", "ProductID"),
        ],
        nns=[
            ("Orders", "OCustomerID"),
            ("OrderDetails", "OOrderID"),
            ("OrderDetails", "OProductID"),
        ],
    ),
    transformer_text="""
        CUST(cid, cname) -> Customers(cid, cname)
        ORD(oid, freight), PURCHASED(puid, cid, oid) -> Orders(oid, freight, cid)
        ORDERDETAILS(odid, price, qty, oid, prid) -> OrderDetails(odid, price, qty, oid, prid)
        PROD(prid, prname) -> Products(prid, prname)
    """,
    nodes={
        "CUST": NodeMap("CUST", "Customers", {"CustomerID": "CustomerID", "CompanyName": "CompanyName"}),
        "ORD": NodeMap("ORD", "Orders", {"OrderID": "OrderID", "Freight": "Freight"}),
        "PROD": NodeMap("PROD", "Products", {"ProductID": "ProductID", "ProductName": "ProductName"}),
    },
    edges={
        "PURCHASED": MergedEdgeMap("PURCHASED", "target", "OCustomerID"),
        "ORDERDETAILS": EdgeTableMap(
            "ORDERDETAILS",
            "OrderDetails",
            {"OdID": "OdID", "UnitPrice": "UnitPrice", "Quantity": "Quantity"},
            "OOrderID",
            "OProductID",
        ),
    },
)

_NEO4J_VOLUME_SQL = """
SELECT P.ProductName, SUM(OD.UnitPrice * OD.Quantity) AS Volume
FROM Customers AS C
LEFT JOIN Orders AS O ON C.CustomerID = O.OCustomerID
LEFT JOIN OrderDetails AS OD ON O.OrderID = OD.OOrderID
LEFT JOIN Products AS P ON OD.OProductID = P.ProductID
WHERE C.CompanyName = 'Drachenblut Delikatessen'
GROUP BY P.ProductName
"""

_NEO4J_VOLUME_CYPHER = """
MATCH (C:CUST {CompanyName: 'Drachenblut Delikatessen'})
OPTIONAL MATCH (C:CUST)-[pu:PURCHASED]->(O:ORD)-[OD:ORDERDETAILS]->(P:PROD)
RETURN P.ProductName, Sum(OD.UnitPrice * OD.Quantity) AS Volume
"""


# ---------------------------------------------------------------------------
# VeriEQL EMP/DEPT (Appendix D example 3, Figure 23)
# ---------------------------------------------------------------------------

VERIEQL_EMP = Universe(
    name="veriql_emp",
    graph_schema=GraphSchema.of(
        [
            NodeType("EMP", ("EmpNo", "EName", "EDeptNo")),
            NodeType("DEPT", ("DeptNo", "DName")),
        ],
        [EdgeType("WORK_AT", "EMP", "DEPT", ("WaID",))],
    ),
    relational_schema=schema_of(
        [
            Relation("EMPT", ("EmpNo", "EName", "DeptNo")),
            Relation("DEPTT", ("DDeptNo", "DName")),
        ],
        pks=[("EMPT", "EmpNo"), ("DEPTT", "DDeptNo")],
    ),
    transformer_text="""
        EMP(eno, ename, dno) -> EMPT(eno, ename, dno)
        DEPT(dno, dname) -> DEPTT(dno, dname)
    """,
    nodes={
        "EMP": NodeMap("EMP", "EMPT", {"EmpNo": "EmpNo", "EName": "EName", "EDeptNo": "DeptNo"}),
        "DEPT": NodeMap("DEPT", "DEPTT", {"DeptNo": "DDeptNo", "DName": "DName"}),
    },
    edges={},
)

_VERIEQL_EMP_SQL = """
SELECT t0.EmpNo, t0.DeptNo, t1.DDeptNo AS DeptNo0 FROM (
    SELECT EmpNo, EName, DeptNo, DeptNo + EmpNo AS f9 FROM EMPT WHERE EmpNo = 10
) AS t0 JOIN (
    SELECT DDeptNo, DName, DDeptNo + 5 AS f2 FROM DEPTT
) AS t1 ON t0.EmpNo = t1.DDeptNo AND t0.f9 = t1.f2
"""

_VERIEQL_EMP_CYPHER = """
MATCH (t0:EMP {EmpNo: 10})-[w:WORK_AT]->(t1:DEPT)
WHERE t1.DeptNo + t0.EmpNo = t1.DeptNo + 5
RETURN t0.EmpNo, t1.DeptNo, t1.DeptNo AS DeptNo0
"""


# ---------------------------------------------------------------------------
# EMP/DEPT head-count (Example 3.4, Figures 14-15)
# ---------------------------------------------------------------------------

EMP_DEPT = Universe(
    name="emp_dept",
    graph_schema=GraphSchema.of(
        [
            NodeType("EMP", ("id", "name")),
            NodeType("DEPT", ("dnum", "dname")),
        ],
        [EdgeType("WORK_AT", "EMP", "DEPT", ("wid",))],
    ),
    relational_schema=schema_of(
        [
            Relation("emp", ("id", "name")),
            Relation("work_at", ("wid", "SRC_", "TGT_")),
            Relation("dept", ("dnum", "dname")),
        ],
        pks=[("emp", "id"), ("work_at", "wid"), ("dept", "dnum")],
        fks=[("work_at", "SRC_", "emp", "id"), ("work_at", "TGT_", "dept", "dnum")],
        nns=[("work_at", "SRC_"), ("work_at", "TGT_")],
    ),
    transformer_text="""
        EMP(id, name) -> emp(id, name)
        WORK_AT(wid, src, tgt) -> work_at(wid, src, tgt)
        DEPT(dnum, dname) -> dept(dnum, dname)
    """,
    nodes={
        "EMP": NodeMap("EMP", "emp", {"id": "id", "name": "name"}),
        "DEPT": NodeMap("DEPT", "dept", {"dnum": "dnum", "dname": "dname"}),
    },
    edges={
        "WORK_AT": EdgeTableMap("WORK_AT", "work_at", {"wid": "wid"}, "SRC_", "TGT_"),
    },
)

_EMP_COUNT_CYPHER = """
MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT)
RETURN m.dname AS name, Count(n) AS num
"""

_EMP_COUNT_SQL = """
SELECT d.dname AS name, COUNT(*) AS num
FROM emp AS e, work_at AS w, dept AS d
WHERE w.SRC_ = e.id AND w.TGT_ = d.dnum
GROUP BY d.dname
"""


# ---------------------------------------------------------------------------
# Assembled curated benchmarks
# ---------------------------------------------------------------------------


def curated_benchmarks() -> list[Benchmark]:
    """All benchmarks lifted directly from the paper's text."""
    return [
        Benchmark(
            id="academic/motivating",
            category="Academic",
            universe=SEMMED,
            cypher_text=_MOTIVATING_CYPHER.strip(),
            sql_text=_MOTIVATING_SQL.strip(),
            expected_equivalent=False,
            bug_class="double-count",
            features=frozenset({"agg", "with", "exists"}),
            notes="Section 2 motivating example (Lin et al. translation bug)",
        ),
        Benchmark(
            id="academic/motivating-fixed",
            category="Academic",
            universe=SEMMED,
            cypher_text=_MOTIVATING_CYPHER_FIXED.strip(),
            sql_text=_MOTIVATING_SQL.strip(),
            expected_equivalent=True,
            features=frozenset({"agg", "exists"}),
            notes="Appendix C corrected query",
        ),
        Benchmark(
            id="tutorial/neo4j-volume",
            category="Tutorial",
            universe=NORTHWIND,
            cypher_text=_NEO4J_VOLUME_CYPHER.strip(),
            sql_text=_NEO4J_VOLUME_SQL.strip(),
            expected_equivalent=False,
            bug_class="optional-path-misuse",
            features=frozenset({"agg", "opt"}),
            notes="Appendix D(2): Neo4j tutorial bug (whole-path OPTIONAL MATCH)",
        ),
        Benchmark(
            id="veriql/emp-dept-join",
            category="VeriEQL",
            universe=VERIEQL_EMP,
            cypher_text=_VERIEQL_EMP_CYPHER.strip(),
            sql_text=_VERIEQL_EMP_SQL.strip(),
            expected_equivalent=False,
            bug_class="wrong-relationship",
            features=frozenset({"arith", "multimatch"}),
            notes="Appendix D(3): WORK_AT traversal vs direct EmpNo/DeptNo join (Fig. 23)",
        ),
        Benchmark(
            id="tutorial/emp-count",
            category="Tutorial",
            universe=EMP_DEPT,
            cypher_text=_EMP_COUNT_CYPHER.strip(),
            sql_text=_EMP_COUNT_SQL.strip(),
            expected_equivalent=True,
            features=frozenset({"agg"}),
            notes="Example 3.4 / Figures 14-15 head-count query",
        ),
    ]
