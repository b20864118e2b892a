"""A simulated TPC-W multi-tier testbed.

The paper's experiments run the TPC-W e-commerce benchmark on a real
three-tier installation (Apache/Tomcat front server + MySQL database) and
collect coarse monitoring data with `sar` and HP (Mercury) Diagnostics.  This
subpackage substitutes that testbed with a discrete-event simulator that
produces the same observables:

* :mod:`~repro.tpcw.transactions` — the 14 TPC-W transaction types
  (Table 3 of the paper) with per-type front-server and database demands,
* :mod:`~repro.tpcw.mixes` — the three standard transaction mixes (browsing,
  shopping, ordering) and the CBMG session model,
* :mod:`~repro.tpcw.contention` — the shared-resource contention process at
  the database that creates correlated slow periods for the Best Seller and
  Home transactions (the cause of burstiness identified in Section 3.3),
* :mod:`~repro.tpcw.testbed` — the closed-loop three-tier simulator
  (emulated browsers, processor-sharing front and database servers) with
  monitoring hooks,
* :mod:`~repro.tpcw.experiment` — experiment drivers used by the benchmark
  harness (EB sweeps, time-series captures, model-building runs).
"""

from repro.tpcw.transactions import TransactionType, TransactionClass, TRANSACTION_CATALOG
from repro.tpcw.mixes import (
    TransactionMix,
    BROWSING_MIX,
    SHOPPING_MIX,
    ORDERING_MIX,
    STANDARD_MIXES,
    CustomerBehaviorGraph,
)
from repro.tpcw.contention import ContentionProcess, ContentionConfig
from repro.tpcw.testbed import TestbedConfig, TestbedResult, TPCWTestbed
from repro.tpcw.experiment import (
    SweepPoint,
    run_eb_sweep,
    collect_monitoring_dataset,
    build_model_from_testbed,
)

__all__ = [
    "TransactionType",
    "TransactionClass",
    "TRANSACTION_CATALOG",
    "TransactionMix",
    "BROWSING_MIX",
    "SHOPPING_MIX",
    "ORDERING_MIX",
    "STANDARD_MIXES",
    "CustomerBehaviorGraph",
    "ContentionProcess",
    "ContentionConfig",
    "TestbedConfig",
    "TestbedResult",
    "TPCWTestbed",
    "SweepPoint",
    "run_eb_sweep",
    "collect_monitoring_dataset",
    "build_model_from_testbed",
]
