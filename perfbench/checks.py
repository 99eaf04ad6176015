"""Correctness checks, computed apart from rkhstest.

Each check returns ``(ok, detail)``.  The recomputations use numpy and the
formulas of the method directly; none of them imports rkhstest or compares
with a stored copy of an earlier output.  Tolerances are set from what the
method guarantees and from the spread measured over many seeds (see the
README).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad

# Lin3 series plan: lambda_v = v^(-2.2/2), orders 1..10, ten covariates
SERIES_TERMS, SERIES_DECAY = 10, 2.2
# relative gaps between rkhstest and the numpy recomputations; the series
# statistic differs because the 500-step greedy fit stops short of least
# squares (largest gap over 40 seeds: see the README)
SERIES_STAT_RTOL = 1e-4
SERIES_SPECTRUM_RTOL = 1e-8
SECTION_RTOL = 1e-10
CLI_STAT_RTOL = 1e-10
Z_LIMIT = 4.5  # standard errors allowed for Monte Carlo quantities


def _spectrum(e0: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of the product-form covariance divided by R."""
    n, r = h.shape
    sigma = (float(e0 @ e0) / n) * (h.T @ h / n)
    return np.clip(np.linalg.eigvalsh((sigma + sigma.T) / 2.0 / r)[::-1], 0.0, None)


def _statistic(e0: np.ndarray, h: np.ndarray) -> float:
    n, r = h.shape
    s = h.T @ e0 / math.sqrt(n)
    return float(s @ s) / r


def _compare(stat, ref_stat, spectrum, ref_spectrum, stat_rtol, spec_rtol) -> tuple[bool, dict]:
    spectrum, ref_spectrum = np.asarray(spectrum), np.asarray(ref_spectrum)
    stat_gap = abs(stat - ref_stat) / abs(ref_stat)
    spec_gap = (float(np.max(np.abs(spectrum - ref_spectrum))) / float(ref_spectrum[0])
                if spectrum.shape == ref_spectrum.shape else math.inf)
    ok = stat_gap <= stat_rtol and spec_gap <= spec_rtol
    return ok, {"statistic_rel_gap": stat_gap, "spectrum_rel_gap": spec_gap,
                "statistic_rtol": stat_rtol, "spectrum_rtol": spec_rtol}


def series_recomputation(ref: dict) -> tuple[bool, dict]:
    """Lin3 test by least squares on x1..x3 and a ridge feature projection."""
    x, y = np.asarray(ref["x"]), np.asarray(ref["y"])
    n, k = x.shape
    coef, *_ = np.linalg.lstsq(x[:, :3], y, rcond=None)
    e0 = x[:, :3] @ coef - y  # score of (y - t)^2 / 2 at the fit
    lam = np.arange(1, SERIES_TERMS + 1, dtype=float) ** (-SERIES_DECAY / 2.0)
    cols = [lam[v - 1] * x[:, c] ** v
            for c in range(k) for v in range(2 if c < 3 else 1, SERIES_TERMS + 1)]
    raw = np.column_stack(cols)
    basis = lam[0] * x[:, :3]
    rho = n * n ** -0.4
    coeff = np.linalg.solve(basis.T @ basis + rho * np.eye(3), basis.T @ raw)
    h = raw - basis @ coeff
    ok, detail = _compare(ref["statistic"], _statistic(e0, h), ref["spectrum"],
                          _spectrum(e0, h), SERIES_STAT_RTOL, SERIES_SPECTRUM_RTOL)
    detail["r_count"] = raw.shape[1]
    return ok and raw.shape[1] == 97 and math.isclose(ref["proj_rho"], rho), detail


def _c0(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    return 0.5 + 0.5 * (s @ t.T)


def _c1(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    d2 = ((s[:, None, :] - t[None, :, :]) ** 2).sum(axis=2)
    return 0.5 * np.exp(-0.5 * d2 / 0.75**2)


def section_recomputation(ref: dict, r_count: int) -> tuple[bool, dict]:
    """BivLinAll test by the matrix formulas of the oracle check (criterion 7)."""
    x, y = np.asarray(ref["x"]), np.asarray(ref["y"])
    n = x.shape[0]
    gram0 = _c0(x, x)
    kappa, vecs = np.linalg.eigh(gram0)
    live = kappa > kappa.max() * 1e-12
    c = vecs.T @ y
    norm0 = float(np.sum(c[live] ** 2 / kappa[live]))
    if norm0 > ref["budget"] ** 2:
        return False, {"reason": "budget binds; this design expects a slack budget"}
    # slack budget: minimum-norm least squares, then the rho = 0 projection
    # onto the orthogonal complement of span{1, x1, x2}
    a0 = vecs[:, live] @ (c[live] / kappa[live])
    e0 = gram0 @ a0 - y
    anchors = np.unique(np.round(np.linspace(0, n - 1, r_count)).astype(int))
    z = x[anchors]
    czz = np.diag(_c0(z, z) + _c1(z, z))
    raw = (_c0(x, z) + _c1(x, z)) / np.sqrt(czz)
    q, _ = np.linalg.qr(np.column_stack([np.ones(n), x]))
    h = raw - q @ (q.T @ raw)
    ok, detail = _compare(ref["statistic"], _statistic(e0, h), ref["spectrum"],
                          _spectrum(e0, h), SECTION_RTOL, SECTION_RTOL)
    return ok and ref["proj_rho"] == 0.0, detail


def imhof_tail(weights, x: float) -> float:
    """P(sum_k w_k N_k^2 > x) by Imhof's (1961) inversion formula.

    P = 1/2 + (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du with
    theta(u) = sum_k arctan(w_k u) / 2 - x u / 2 and
    rho(u) = prod_k (1 + w_k^2 u^2)^(1/4).  The integral is cut at the
    first U with rho(U) > 1e9, so with two or more weights the tail beyond
    U is below 1e-9; returns NaN when no such U lies below 1e7.
    """
    w = np.asarray(weights, dtype=float)
    w = w[w > 0]
    scale = float(w.max())
    w, x = w / scale, x / scale

    def log_rho(u: float) -> float:
        return 0.25 * float(np.sum(np.log1p((w * u) ** 2)))

    def integrand(u: float) -> float:
        theta = 0.5 * float(np.sum(np.arctan(w * u))) - 0.5 * x * u
        return math.sin(theta) / (u * math.exp(log_rho(u)))

    upper = 1.0
    while log_rho(upper) < 9.0 * math.log(10.0):
        upper *= 2.0
        if upper > 1e7:
            return math.nan
    # pieces: a geometric grid resolves the scale of the weights, and a
    # grid of eight oscillation periods of sin(x u / 2) bounds the number
    # of sign changes quad meets in one piece
    edges = {upper} | {2.0**j for j in range(-20, 24) if 2.0**j < upper}
    if x > 0:
        step = 8.0 * 4.0 * math.pi / x
        edges |= set(np.arange(step, upper, step).tolist())
    edges = [0.0, *sorted(edges)]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        part, _ = quad(integrand, max(lo, 1e-300), hi, limit=200)
        total += part
    return 0.5 + total / math.pi


def monte_carlo_agrees(emitted: float, exact: float, draws: int) -> tuple[bool, dict]:
    """An add-one Monte Carlo p-value against the exact tail it estimates."""
    se = math.sqrt(max(exact * (1.0 - exact), 1.0 / draws) / draws)
    gap = abs(emitted - exact)
    ok = gap <= Z_LIMIT * se + 1.0 / (draws + 1)
    return ok, {"emitted": emitted, "imhof": exact, "se": se, "gap_in_se": gap / se}


def cli_recomputation(record: dict, model: dict, x: np.ndarray, y: np.ndarray,
                      lengthscale: float, r_count: int) -> tuple[bool, dict]:
    """Statistic from the `fit` model, numpy Gram matrices and the emitted rho."""
    n = x.shape[0]

    def rbf(col):
        d = x[:, col][:, None] - x[:, col][None, :]
        return np.exp(-0.5 * d**2 / lengthscale**2)

    grams = [rbf(0), rbf(1)]
    alpha = np.asarray(model["coeffs"])  # (n, terms)
    fitted = sum(g @ alpha[:, t] for t, g in enumerate(grams))
    e0 = fitted - y
    c0 = grams[0] + grams[1]
    combined = c0 + rbf(2)
    anchors = np.unique(np.round(np.linspace(0, n - 1, r_count)).astype(int))
    raw = combined[:, anchors] / np.sqrt(np.diag(combined)[anchors])
    rho = record["proj_rho"]
    h = raw - c0 @ np.linalg.solve(c0 + rho * np.eye(n), raw)
    stat = _statistic(e0, h)
    gap = abs(stat - record["statistic"]) / abs(stat)
    ok = gap <= CLI_STAT_RTOL and math.isclose(rho, n * n ** -0.4, rel_tol=1e-12)
    return ok, {"statistic_rel_gap": gap, "rtol": CLI_STAT_RTOL, "proj_rho": rho}


def digest(directory: Path) -> str:
    """One hash over the names and bytes of the files in a result directory.

    The config echo names the run's own output directory on its ``out:``
    line, so that line is left out; every other byte counts.
    """
    h = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        data = path.read_bytes()
        if path.name == "config.yaml":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"out: "))
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())
