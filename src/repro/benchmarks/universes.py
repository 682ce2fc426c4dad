"""Benchmark universes: domain schemas with their relational mappings.

Six generated-benchmark domains plus the curated SemMedDB domain from the
paper's motivating example.  Within each graph schema property keys are
globally unique (the paper's assumption); target relational schemas vary
between *edge-table* designs (an edge type becomes its own table) and
*merged* designs (an edge type becomes a foreign-key column), exercising
non-trivial residual transformers.
"""

from __future__ import annotations

from repro.benchmarks.spec import EdgeTableMap, MergedEdgeMap, NodeMap, Universe, schema_of
from repro.graph.schema import EdgeType, GraphSchema, NodeType
from repro.relational.schema import Relation


# ---------------------------------------------------------------------------
# company — EMP/DEPT with an edge table
# ---------------------------------------------------------------------------

COMPANY = Universe(
    name="company",
    graph_schema=GraphSchema.of(
        [
            NodeType("EMP", ("eid", "ename", "salary")),
            NodeType("DEPT", ("dno", "dname", "budget")),
        ],
        [EdgeType("WORK_AT", "EMP", "DEPT", ("wid",))],
    ),
    relational_schema=schema_of(
        [
            Relation("emp", ("emp_id", "emp_name", "emp_salary")),
            Relation("dept", ("dept_no", "dept_name", "dept_budget")),
            Relation("works", ("w_id", "w_emp", "w_dept")),
        ],
        pks=[("emp", "emp_id"), ("dept", "dept_no"), ("works", "w_id")],
        fks=[
            ("works", "w_emp", "emp", "emp_id"),
            ("works", "w_dept", "dept", "dept_no"),
        ],
        nns=[("works", "w_emp"), ("works", "w_dept")],
    ),
    transformer_text="""
        EMP(eid, ename, salary) -> emp(eid, ename, salary)
        DEPT(dno, dname, budget) -> dept(dno, dname, budget)
        WORK_AT(wid, src, tgt) -> works(wid, src, tgt)
    """,
    nodes={
        "EMP": NodeMap("EMP", "emp", {"eid": "emp_id", "ename": "emp_name", "salary": "emp_salary"}),
        "DEPT": NodeMap("DEPT", "dept", {"dno": "dept_no", "dname": "dept_name", "budget": "dept_budget"}),
    },
    edges={
        "WORK_AT": EdgeTableMap("WORK_AT", "works", {"wid": "w_id"}, "w_emp", "w_dept"),
    },
)


# ---------------------------------------------------------------------------
# company_merged — same graph schema, edge folded into emp.deptno
# ---------------------------------------------------------------------------

COMPANY_MERGED = Universe(
    name="company_merged",
    graph_schema=GraphSchema.of(
        [
            NodeType("WORKER", ("woid", "woname", "wosalary")),
            NodeType("UNIT", ("uno", "uname_", "ubudget")),
        ],
        [EdgeType("BELONGS_TO", "WORKER", "UNIT", ("bid",))],
    ),
    relational_schema=schema_of(
        [
            # Keyed by the *edge* id so parallel BELONGS_TO edges keep their
            # multiplicity (the transformer derives a set of facts; keying on
            # worker_id would silently collapse duplicates).
            Relation(
                "worker",
                ("worker_rec", "worker_id", "worker_name", "worker_salary", "worker_unit"),
            ),
            Relation("unit", ("unit_no", "unit_name", "unit_budget")),
        ],
        pks=[("worker", "worker_rec"), ("unit", "unit_no")],
        fks=[("worker", "worker_unit", "unit", "unit_no")],
        nns=[("worker", "worker_unit")],
    ),
    transformer_text="""
        WORKER(id, name, sal), BELONGS_TO(bid, id, uno) -> worker(bid, id, name, sal, uno)
        UNIT(uno, uname, budget) -> unit(uno, uname, budget)
    """,
    nodes={
        "WORKER": NodeMap(
            "WORKER",
            "worker",
            {"woid": "worker_id", "woname": "worker_name", "wosalary": "worker_salary"},
        ),
        "UNIT": NodeMap(
            "UNIT", "unit", {"uno": "unit_no", "uname_": "unit_name", "ubudget": "unit_budget"}
        ),
    },
    edges={"BELONGS_TO": MergedEdgeMap("BELONGS_TO", "source", "worker_unit")},
)


# ---------------------------------------------------------------------------
# social — USER/POST with FOLLOWS (self-loop), WROTE, LIKES edge tables
# ---------------------------------------------------------------------------

SOCIAL = Universe(
    name="social",
    graph_schema=GraphSchema.of(
        [
            NodeType("USER", ("uid", "uname", "age")),
            NodeType("POST", ("pid", "title", "score")),
        ],
        [
            EdgeType("FOLLOWS", "USER", "USER", ("fid",)),
            EdgeType("WROTE", "USER", "POST", ("wrid",)),
            EdgeType("LIKES", "USER", "POST", ("lkid",)),
        ],
    ),
    relational_schema=schema_of(
        [
            Relation("users", ("u_id", "u_name", "u_age")),
            Relation("posts", ("p_id", "p_title", "p_score")),
            Relation("follows", ("f_id", "f_src", "f_dst")),
            Relation("wrote", ("wr_id", "wr_user", "wr_post")),
            Relation("likes", ("lk_id", "lk_user", "lk_post")),
        ],
        pks=[
            ("users", "u_id"),
            ("posts", "p_id"),
            ("follows", "f_id"),
            ("wrote", "wr_id"),
            ("likes", "lk_id"),
        ],
        fks=[
            ("follows", "f_src", "users", "u_id"),
            ("follows", "f_dst", "users", "u_id"),
            ("wrote", "wr_user", "users", "u_id"),
            ("wrote", "wr_post", "posts", "p_id"),
            ("likes", "lk_user", "users", "u_id"),
            ("likes", "lk_post", "posts", "p_id"),
        ],
        nns=[
            ("follows", "f_src"),
            ("follows", "f_dst"),
            ("wrote", "wr_user"),
            ("wrote", "wr_post"),
            ("likes", "lk_user"),
            ("likes", "lk_post"),
        ],
    ),
    transformer_text="""
        USER(uid, uname, age) -> users(uid, uname, age)
        POST(pid, title, score) -> posts(pid, title, score)
        FOLLOWS(fid, src, dst) -> follows(fid, src, dst)
        WROTE(wrid, src, dst) -> wrote(wrid, src, dst)
        LIKES(lkid, src, dst) -> likes(lkid, src, dst)
    """,
    nodes={
        "USER": NodeMap("USER", "users", {"uid": "u_id", "uname": "u_name", "age": "u_age"}),
        "POST": NodeMap("POST", "posts", {"pid": "p_id", "title": "p_title", "score": "p_score"}),
    },
    edges={
        "FOLLOWS": EdgeTableMap("FOLLOWS", "follows", {"fid": "f_id"}, "f_src", "f_dst"),
        "WROTE": EdgeTableMap("WROTE", "wrote", {"wrid": "wr_id"}, "wr_user", "wr_post"),
        "LIKES": EdgeTableMap("LIKES", "likes", {"lkid": "lk_id"}, "lk_user", "lk_post"),
    },
)


# ---------------------------------------------------------------------------
# store — CUSTOMER → ORDERS → PRODUCT (chainable), mixed design
# ---------------------------------------------------------------------------

STORE = Universe(
    name="store",
    graph_schema=GraphSchema.of(
        [
            NodeType("CUSTOMER", ("custid", "custname", "region")),
            NodeType("ORDER_", ("ordid", "total", "year")),
            NodeType("PRODUCT", ("prodid", "prodname", "price")),
        ],
        [
            EdgeType("PLACED", "CUSTOMER", "ORDER_", ("plid",)),
            EdgeType("CONTAINS", "ORDER_", "PRODUCT", ("ctid", "qty")),
        ],
    ),
    relational_schema=schema_of(
        [
            Relation("customers", ("c_id", "c_name", "c_region")),
            Relation("orders", ("o_id", "o_total", "o_year")),
            Relation("products", ("pr_id", "pr_name", "pr_price")),
            Relation("placements", ("pl_id", "pl_cust", "pl_order")),
            Relation("order_items", ("oi_id", "oi_qty", "oi_order", "oi_product")),
        ],
        pks=[
            ("customers", "c_id"),
            ("orders", "o_id"),
            ("products", "pr_id"),
            ("placements", "pl_id"),
            ("order_items", "oi_id"),
        ],
        fks=[
            ("placements", "pl_cust", "customers", "c_id"),
            ("placements", "pl_order", "orders", "o_id"),
            ("order_items", "oi_order", "orders", "o_id"),
            ("order_items", "oi_product", "products", "pr_id"),
        ],
        nns=[
            ("placements", "pl_cust"),
            ("placements", "pl_order"),
            ("order_items", "oi_order"),
            ("order_items", "oi_product"),
        ],
    ),
    transformer_text="""
        CUSTOMER(cid, cname, region) -> customers(cid, cname, region)
        ORDER_(oid, total, year) -> orders(oid, total, year)
        PLACED(plid, cid, oid) -> placements(plid, cid, oid)
        PRODUCT(prid, prname, price) -> products(prid, prname, price)
        CONTAINS(ctid, qty, oid, prid) -> order_items(ctid, qty, oid, prid)
    """,
    nodes={
        "CUSTOMER": NodeMap(
            "CUSTOMER", "customers", {"custid": "c_id", "custname": "c_name", "region": "c_region"}
        ),
        "ORDER_": NodeMap(
            "ORDER_", "orders", {"ordid": "o_id", "total": "o_total", "year": "o_year"}
        ),
        "PRODUCT": NodeMap(
            "PRODUCT", "products", {"prodid": "pr_id", "prodname": "pr_name", "price": "pr_price"}
        ),
    },
    edges={
        "PLACED": EdgeTableMap("PLACED", "placements", {"plid": "pl_id"}, "pl_cust", "pl_order"),
        "CONTAINS": EdgeTableMap(
            "CONTAINS", "order_items", {"ctid": "oi_id", "qty": "oi_qty"}, "oi_order", "oi_product"
        ),
    },
)


# ---------------------------------------------------------------------------
# movies — ACTOR/MOVIE/DIRECTOR with edge properties
# ---------------------------------------------------------------------------

MOVIES = Universe(
    name="movies",
    graph_schema=GraphSchema.of(
        [
            NodeType("ACTOR", ("aid", "aname", "awards")),
            NodeType("MOVIE", ("mid", "mtitle", "myear")),
            NodeType("DIRECTOR", ("did", "dname_", "oscars")),
        ],
        [
            EdgeType("ACTS_IN", "ACTOR", "MOVIE", ("acid", "fee")),
            EdgeType("DIRECTS", "DIRECTOR", "MOVIE", ("dirid",)),
        ],
    ),
    relational_schema=schema_of(
        [
            Relation("actors", ("a_id", "a_name", "a_awards")),
            Relation("movies", ("m_id", "m_title", "m_year")),
            Relation("directors", ("d_id", "d_name", "d_oscars")),
            Relation("casting", ("cast_id", "cast_fee", "cast_actor", "cast_movie")),
            Relation("directing", ("dir_id", "dir_director", "dir_movie")),
        ],
        pks=[
            ("actors", "a_id"),
            ("movies", "m_id"),
            ("directors", "d_id"),
            ("casting", "cast_id"),
            ("directing", "dir_id"),
        ],
        fks=[
            ("casting", "cast_actor", "actors", "a_id"),
            ("casting", "cast_movie", "movies", "m_id"),
            ("directing", "dir_director", "directors", "d_id"),
            ("directing", "dir_movie", "movies", "m_id"),
        ],
        nns=[
            ("casting", "cast_actor"),
            ("casting", "cast_movie"),
            ("directing", "dir_director"),
            ("directing", "dir_movie"),
        ],
    ),
    transformer_text="""
        ACTOR(aid, aname, awards) -> actors(aid, aname, awards)
        MOVIE(mid, mtitle, myear) -> movies(mid, mtitle, myear)
        DIRECTOR(did, dname, oscars) -> directors(did, dname, oscars)
        ACTS_IN(acid, fee, src, dst) -> casting(acid, fee, src, dst)
        DIRECTS(dirid, src, dst) -> directing(dirid, src, dst)
    """,
    nodes={
        "ACTOR": NodeMap("ACTOR", "actors", {"aid": "a_id", "aname": "a_name", "awards": "a_awards"}),
        "MOVIE": NodeMap("MOVIE", "movies", {"mid": "m_id", "mtitle": "m_title", "myear": "m_year"}),
        "DIRECTOR": NodeMap(
            "DIRECTOR", "directors", {"did": "d_id", "dname_": "d_name", "oscars": "d_oscars"}
        ),
    },
    edges={
        "ACTS_IN": EdgeTableMap(
            "ACTS_IN", "casting", {"acid": "cast_id", "fee": "cast_fee"}, "cast_actor", "cast_movie"
        ),
        "DIRECTS": EdgeTableMap(
            "DIRECTS", "directing", {"dirid": "dir_id"}, "dir_director", "dir_movie"
        ),
    },
)


# ---------------------------------------------------------------------------
# university — STUDENT/COURSE with a graded enrollment edge
# ---------------------------------------------------------------------------

UNIVERSITY = Universe(
    name="university",
    graph_schema=GraphSchema.of(
        [
            NodeType("STUDENT", ("stid", "stname", "gpa")),
            NodeType("COURSE", ("crsid", "crsname", "credits")),
        ],
        [EdgeType("ENROLLED", "STUDENT", "COURSE", ("enid", "grade"))],
    ),
    relational_schema=schema_of(
        [
            Relation("students", ("s_id", "s_name", "s_gpa")),
            Relation("courses", ("crs_id", "crs_name", "crs_credits")),
            Relation("enrollment", ("e_id", "e_grade", "e_student", "e_course")),
        ],
        pks=[("students", "s_id"), ("courses", "crs_id"), ("enrollment", "e_id")],
        fks=[
            ("enrollment", "e_student", "students", "s_id"),
            ("enrollment", "e_course", "courses", "crs_id"),
        ],
        nns=[("enrollment", "e_student"), ("enrollment", "e_course")],
    ),
    transformer_text="""
        STUDENT(stid, stname, gpa) -> students(stid, stname, gpa)
        COURSE(crsid, crsname, credits) -> courses(crsid, crsname, credits)
        ENROLLED(enid, grade, src, dst) -> enrollment(enid, grade, src, dst)
    """,
    nodes={
        "STUDENT": NodeMap(
            "STUDENT", "students", {"stid": "s_id", "stname": "s_name", "gpa": "s_gpa"}
        ),
        "COURSE": NodeMap(
            "COURSE", "courses", {"crsid": "crs_id", "crsname": "crs_name", "credits": "crs_credits"}
        ),
    },
    edges={
        "ENROLLED": EdgeTableMap(
            "ENROLLED", "enrollment", {"enid": "e_id", "grade": "e_grade"}, "e_student", "e_course"
        ),
    },
)


# ---------------------------------------------------------------------------
# library — BOOK/READER/BRANCH, three-node chain via edge tables
# ---------------------------------------------------------------------------

LIBRARY = Universe(
    name="library",
    graph_schema=GraphSchema.of(
        [
            NodeType("READER", ("rdid", "rdname", "fines")),
            NodeType("BOOK", ("bkid", "bktitle", "pages")),
            NodeType("BRANCH", ("brid", "brname", "city")),
        ],
        [
            EdgeType("BORROWED", "READER", "BOOK", ("bwid", "weeks")),
            EdgeType("HELD_AT", "BOOK", "BRANCH", ("haid",)),
        ],
    ),
    relational_schema=schema_of(
        [
            Relation("readers", ("rd_id", "rd_name", "rd_fines")),
            Relation("books", ("bk_id", "bk_title", "bk_pages")),
            Relation("branches", ("br_id", "br_name", "br_city")),
            Relation("loans", ("ln_id", "ln_weeks", "ln_reader", "ln_book")),
            Relation("holdings", ("h_id", "h_book", "h_branch")),
        ],
        pks=[
            ("readers", "rd_id"),
            ("books", "bk_id"),
            ("branches", "br_id"),
            ("loans", "ln_id"),
            ("holdings", "h_id"),
        ],
        fks=[
            ("loans", "ln_reader", "readers", "rd_id"),
            ("loans", "ln_book", "books", "bk_id"),
            ("holdings", "h_book", "books", "bk_id"),
            ("holdings", "h_branch", "branches", "br_id"),
        ],
        nns=[
            ("loans", "ln_reader"),
            ("loans", "ln_book"),
            ("holdings", "h_book"),
            ("holdings", "h_branch"),
        ],
    ),
    transformer_text="""
        READER(rdid, rdname, fines) -> readers(rdid, rdname, fines)
        BOOK(bkid, bktitle, pages) -> books(bkid, bktitle, pages)
        BRANCH(brid, brname, city) -> branches(brid, brname, city)
        BORROWED(bwid, weeks, src, dst) -> loans(bwid, weeks, src, dst)
        HELD_AT(haid, src, dst) -> holdings(haid, src, dst)
    """,
    nodes={
        "READER": NodeMap("READER", "readers", {"rdid": "rd_id", "rdname": "rd_name", "fines": "rd_fines"}),
        "BOOK": NodeMap("BOOK", "books", {"bkid": "bk_id", "bktitle": "bk_title", "pages": "bk_pages"}),
        "BRANCH": NodeMap("BRANCH", "branches", {"brid": "br_id", "brname": "br_name", "city": "br_city"}),
    },
    edges={
        "BORROWED": EdgeTableMap(
            "BORROWED", "loans", {"bwid": "ln_id", "weeks": "ln_weeks"}, "ln_reader", "ln_book"
        ),
        "HELD_AT": EdgeTableMap("HELD_AT", "holdings", {"haid": "h_id"}, "h_book", "h_branch"),
    },
)


#: Universes used by the generated benchmark families.
GENERATED_UNIVERSES: tuple[Universe, ...] = (
    COMPANY,
    COMPANY_MERGED,
    SOCIAL,
    STORE,
    MOVIES,
    UNIVERSITY,
    LIBRARY,
)
