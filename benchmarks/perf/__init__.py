"""Wall-clock benchmarks for the simulator itself.

Unlike the ``benchmarks/test_*`` suite (which reproduces the paper's
tables and figures in *simulated* time), this package measures the
*wall-clock* cost of running the simulator.  The ``fastpath`` suite
records absolute figures for the hot paths:

====================  ===============================================
benchmark             figures
====================  ===============================================
kernel                events per wall second of ``Simulator.run``
xensocket_100mb       wall time and kernel events of a 100 MB
                      ``transfer()``; event count per size, 0 B-100 MB
overlay_lookup_storm  wall time and kernel events of 1000 lookups on a
                      48-node overlay
table1_sweep          Table I sweep wall time, here and in the seed
                      tree (``git archive`` of the root commit)
====================  ===============================================

Run ``python -m benchmarks.perf.run`` from the repo root to execute
everything and write ``BENCH_fastpath.json`` (and the other suites'
BENCH files).  Benchmarks check simulated results as they go — the
XenSocket transfer against its closed form, the Table I sweep against
the seed tree — so a speedup that changes behaviour fails loudly
instead of being recorded.
"""
