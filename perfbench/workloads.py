"""The benchmark's workloads, as data.

Each workload is a shipped preset plus overrides, run through one of the
pipeline entry points the CLI uses.  Only ``seed`` varies between runs: the
``--seed`` given to run.py becomes the config's ``seed``, which keys the pilot
envelope and every Monte Carlo stream.  Model-defining seeds inside a preset
(the random correlation and weights of ``bs25d``) stay fixed, because they
define the workload rather than sample it.

This module imports nothing from ``basketproj`` so the parent process can
validate arguments without paying the numpy/scipy import.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str            # "run", "convergence" or "surface"
    preset: str
    default_seed: int     # the preset's own seed; also the reference seed
    full: dict = field(default_factory=dict)
    tiny: dict = field(default_factory=dict)

    def overrides(self, scale: str) -> dict:
        return self.full if scale == "full" else self.tiny


WORKLOADS = {w.name: w for w in (
    # The paper's strike sweep.  Two 65536-path Philox chunks, so per-strike MC
    # work and chunk-level parallelism both show; the HJB grids stay small.
    Workload("bs3d-sweep", "run", "bs3d", default_seed=3,
             full={"nt_tiers": [32, 64], "m_paths": 131072},
             tiny={"nt_tiers": [16, 32], "m_paths": 4096,
                   "surface_slices": 4, "surface_abscissae": 8}),
    # Fine time grids with a single small path chunk: the backward solves
    # (and the top-tier export re-solve) carry the time, MC barely registers.
    Workload("bs3d-pde", "run", "bs3d", default_seed=3,
             full={"nt_tiers": [512, 1024], "m_paths": 1024},
             tiny={"nt_tiers": [64, 128], "m_paths": 256,
                   "surface_slices": 4, "surface_abscissae": 8}),
    # The coupled multi-tier kernel on the exact Bachelier model: one strike,
    # a constant surface (Laplace bypassed) and the RNG at a third of the time.
    Workload("bachelier5d-converge", "convergence", "bachelier-exact", default_seed=2,
             full={"nt_tiers": [32, 64, 128], "m_paths": 65536},
             tiny={"nt_tiers": [8, 16, 32], "m_paths": 2048}),
    # The surface stage alone at d=25: Laplace/Newton carries the time.  The
    # only workload where the surface and projection layers are not noise.
    Workload("bs25d-surface", "surface", "bs25d", default_seed=5,
             full={"surface_slices": 48, "surface_abscissae": 48},
             tiny={"surface_slices": 4, "surface_abscissae": 8}),
)}
