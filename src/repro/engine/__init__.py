"""The object-relational engine substrate.

This package stands in for IBM DB2 UDB V.7.2 in the paper's experiments:
heap tables with page-accurate size accounting, hash/B-tree indexes, a
SQL subset with a cost-based optimizer, statistics (``runstats``), an
index advisor, and a UDF registry modelling fenced/not-fenced invocation
overhead.  See DESIGN.md §2 for the substitution argument.
"""

from repro.engine.advisor import IndexAdvisor, IndexSuggestion
from repro.engine.catalog import CatalogManager, CatalogState
from repro.engine.database import Database
from repro.engine.faults import FAULTS, FaultInjector, FaultPlan
from repro.engine.governor import GovernorLimits, ResourceGovernor
from repro.engine.parallel import WorkerPool
from repro.engine.recovery import RecoveryReport, recover_database
from repro.engine.result import Result
from repro.engine.wal import WriteAheadLog
from repro.engine.schema import (
    Catalog,
    Column,
    IndexDef,
    PartitionSpec,
    TableSchema,
)
from repro.engine.session import PreparedStatement, Session
from repro.engine.snapshot import EngineSnapshot, TableVersion
from repro.engine.storage_engine import StorageEngine
from repro.engine.types import (
    INTEGER,
    VARCHAR,
    XADT,
    IntegerType,
    SqlType,
    VarcharType,
    XadtType,
    type_from_name,
)
from repro.engine.udf import FunctionKind, FunctionRegistry

__all__ = [
    "Catalog",
    "CatalogManager",
    "CatalogState",
    "Column",
    "Database",
    "EngineSnapshot",
    "FAULTS",
    "FaultInjector",
    "FaultPlan",
    "FunctionKind",
    "FunctionRegistry",
    "GovernorLimits",
    "INTEGER",
    "IndexAdvisor",
    "IndexDef",
    "IndexSuggestion",
    "IntegerType",
    "PartitionSpec",
    "PreparedStatement",
    "RecoveryReport",
    "ResourceGovernor",
    "Result",
    "Session",
    "SqlType",
    "StorageEngine",
    "TableSchema",
    "TableVersion",
    "VARCHAR",
    "VarcharType",
    "WorkerPool",
    "WriteAheadLog",
    "XADT",
    "XadtType",
    "recover_database",
    "type_from_name",
]
