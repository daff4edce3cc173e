"""Distributed crawl→index batch build (the paper's offline MapReduce build).

:class:`BuildPipeline` turns a partitionable corpus source into a fully
loaded serving store through two retried stages — partitioned map tasks
that spool whole fragments, and load tasks that bulk-load the spools
inside one write batch of the target — producing output byte-identical to
a single-process ``DashEngine.build()``.  See :mod:`repro.build.pipeline`
for the stage-by-stage contract.
"""

from repro.build.pipeline import (
    BuildPipeline,
    BuildPipelineError,
    BuildReport,
)

__all__ = [
    "BuildPipeline",
    "BuildPipelineError",
    "BuildReport",
]
