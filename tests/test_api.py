"""The exported package surface."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import obflow
import obflow.config
import obflow.diagnostics
import obflow.experiments
import obflow.linear
import obflow.model
import obflow.spectral
import obflow.stepping

# Retired API: the critical-damping switch of the mode propagator (one
# closed form serves every regime), the split nonlinear operators (the
# fused kernel behind explicit_rhs builds every nonlinear term), the
# transform wrappers (SpectralField.from_physical / to_physical), the
# scalar-only names of the field data, the scheme switch (IF-RK4 is the
# only scheme), the run-level record cadence (diagnostics owns it), the
# Grid's descriptions of the 2/3 box and its half-layout multipliers and
# weights (each spectral.SupportTable builds its own) and the hand-off
# helpers and slot (a record's model.Tendency reaches the next step
# through integrate), the per-artifact writers (every file goes through
# snapshots.atomic_write_text with json_text or csv_text), the one-sided
# toggles and their inversion helper (transport and the coupling are one
# toggle each, TermToggles.advection and TermToggles.coupling), the stress
# dissipation toggle and its effective eta (eta = 0 is its off switch) and
# a table's own copy of k~ (the projector reads the derivative multipliers;
# an instance attribute, so a table is its owner here).
REMOVED = [
    (obflow.diagnostics, "write_diagnostics_csv"),
    (obflow.experiments, "_json_text"),
    (obflow.linear, "CRITICAL_TOL"),
    (obflow.linear, "write_dispersion_csv"),
    (obflow.model, "advect"),
    (obflow.model, "q_bilinear"),
    (obflow.model, "_take_handoff"),
    (obflow.model, "_half_layout_terms"),
    (obflow.model, "_gradient_physical"),
    (obflow.model, "_buffer"),
    (obflow.model, "_STACK_BYTES"),
    (obflow.model, "_inverts"),
    (obflow.model.FlowState, "_handoff"),
    (obflow.model.ModelParams, "nu_eff"),
    (obflow.model.ModelParams, "a_eff"),
    (obflow.model.TermToggles, "nu_dissipation"),
    (obflow.model.TermToggles, "damping"),
    (obflow.model.TermToggles, "advection_u"),
    (obflow.model.TermToggles, "advection_tau"),
    (obflow.model.TermToggles, "stress_divergence"),
    (obflow.model.TermToggles, "strain_source"),
    (obflow.model.TermToggles, "eta_dissipation"),
    (obflow.model.ModelParams, "eta_eff"),
    (obflow.spectral, "forward_transform"),
    (obflow.spectral, "inverse_transform"),
    (obflow.spectral, "_data"),
    (obflow.spectral, "_rewrap"),
    (obflow.spectral, "_dealiased_forward"),
    (obflow.spectral.Grid, "kept_ranges"),
    (obflow.spectral.Grid, "box_lines"),
    (obflow.spectral.Grid, "outside_box"),
    (obflow.spectral.Grid, "wavenumbers"),
    (obflow.spectral.Grid, "derivative_multipliers"),
    (obflow.spectral.Grid, "k_squared"),
    (obflow.spectral.Grid, "k_squared_divisor"),
    (obflow.spectral.Grid, "sobolev_weight"),
    (obflow.spectral.Grid, "fractional_multiplier"),
    (obflow.spectral.Grid, "_weight_cache"),
    (obflow.spectral.SupportTable, "_gathered"),
    (obflow.Grid(2, 8).support_table(True), "leray_wavenumbers"),
    (obflow.spectral.SpectralField, "coeffs"),
    (obflow.spectral.SpectralField, "with_coeffs"),
    (obflow.stepping, "SCHEMES"),
    (obflow.config.RunConfig, "cadence_steps"),
]


def test_every_exported_name_resolves():
    assert len(set(obflow.__all__)) == len(obflow.__all__)
    missing = [name for name in obflow.__all__ if not hasattr(obflow, name)]
    assert missing == []


@pytest.mark.parametrize("owner, name", REMOVED,
                         ids=[name for _, name in REMOVED])
def test_removed_names_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in obflow.__all__
    assert not hasattr(obflow, name)


def test_field_classes_share_one_implementation():
    grid = obflow.Grid(2, 8)
    for cls, lead in ((obflow.SpectralField, ()),
                      (obflow.VectorField, (2,)),
                      (obflow.TensorField, (3,))):
        field = cls.zeros(grid)
        assert field.comps.shape == lead + grid.spectral_shape
        assert type(field.copy()) is cls
        assert type(field.with_comps(field.comps)) is cls
        assert type(cls.from_physical(grid, field.to_physical())) is cls
        with pytest.raises(obflow.spectral.GridMismatchError):
            cls(grid, np.zeros((4,) + grid.spectral_shape))
        with pytest.raises(obflow.spectral.GridMismatchError):
            cls.from_physical(grid, np.zeros((4,) + grid.shape))


def test_benchmark_tracer_targets_resolve():
    """The benchmark's tracer (perfbench/spans.py) wraps obflow functions
    by (owner, attribute); every one it names must still exist."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in spans.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert spans.TARGETS and missing == []
