"""Central finite-difference gradient checking shared by the test suite,
and the small model configuration those checks and unit tests run on."""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from moniground import tensor as T
from moniground.grounder import ModelConfig
from moniground.langenc import LangConfig
from moniground.pointenc import EncoderConfig, SALayerSpec


def finite_diff_check(
    build_loss: Callable[[], T.Tensor],
    params: Iterable[T.Tensor],
    rel_tol: float = 1e-5,
    step: float = 1e-6,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare analytic gradients of `build_loss()` against central differences.

    `build_loss` must rebuild the scalar loss from scratch on every call so
    that perturbed parameter values are observed. When `max_coords` is set,
    only that many randomly chosen coordinates per parameter are probed.
    Returns the worst relative error seen and asserts it is within rel_tol.
    The parameters must be float64 (the `float64` fixture): a step of 1e-6
    is below float32's resolution for most values.
    """
    params = list(params)
    assert all(p.data.dtype == np.float64 for p in params), "finite differences need float64 parameters"
    for p in params:
        p.zero_grad()
    loss = build_loss()
    T.backward(loss)
    worst = 0.0
    for p in params:
        assert p.grad is not None, "parameter received no gradient"
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        coords = range(flat.size)
        if max_coords is not None and flat.size > max_coords:
            assert rng is not None
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + step
            up = build_loss().data.item()
            flat[i] = orig - step
            down = build_loss().data.item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            analytic = gflat[i]
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            worst = max(worst, err)
            assert err <= rel_tol, (
                f"gradient mismatch at coord {i}: analytic {analytic!r}, "
                f"numeric {numeric!r}, rel err {err:.3e}"
            )
    return worst


def tiny_model_config(modality: str = "xyz+rgb+intensity") -> ModelConfig:
    """Small dimensions for fast gradient checks and unit tests."""
    encoder = EncoderConfig(
        sa_layers=(
            SALayerSpec(8, 3.0, 4, (6, 8)),
            SALayerSpec(6, 6.0, 4, (8, 10)),
        ),
        m_candidates=4,
        feature_dim=12,
        cg_radius=6.0,
        cg_cap=4,
        shift_hidden=6,
    )
    lang = LangConfig(embed_dim=6, hidden_dim=5, max_len=8)
    return ModelConfig(encoder, lang, shared_dim=10, fused_dim=12, modality=modality)
