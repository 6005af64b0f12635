"""Call-graph analysis used by the partitioners.

The paper observes that modern applications are highly modular: their
submodules show up as dense clusters in the call graph, with far more
intra-cluster than inter-cluster calls (Section 4.2).  The SecureLease
partitioner runs K-means over the CFG to recover those clusters and then
migrates *whole* clusters into the enclave.

* :mod:`repro.callgraph.cfg` — weighted directed call graph built from a
  program and a dynamic profile.
* :mod:`repro.callgraph.clustering` — spectral embedding plus a
  from-scratch K-means (Kanungo et al. style Lloyd iterations).
* :mod:`repro.callgraph.metrics` — modularity, static/dynamic coverage.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CallGraph": "repro.callgraph.cfg",
    "Clustering": "repro.callgraph.clustering",
    "kmeans": "repro.callgraph.clustering",
    "spectral_embedding": "repro.callgraph.clustering",
    "SynthesisSpec": "repro.callgraph.synthesis",
    "synthesize_program": "repro.callgraph.synthesis",
    "cut_calls": "repro.callgraph.metrics",
    "dynamic_coverage": "repro.callgraph.metrics",
    "modularity": "repro.callgraph.metrics",
    "static_coverage_bytes": "repro.callgraph.metrics",
})
