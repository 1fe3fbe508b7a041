"""The check battery: the suites of residual checks behind the report.

``algebra`` covers the Clifford relations, the covering map and the epsilon
calculus; ``symbols`` Prop. 1's prenormal factorization and the closed-form
fiber operators; ``signature`` Remark 6's indefinite xi-form; ``evolution``
Theorem 1's retarded Green operator and finite propagation speed and
Theorem 2's conserved slice product. A suite body records its rows as
ordered ``suite.check`` calls that draw from the suite's one rng in that
order, so a seed fixes every residual. ``SUITES`` lists the suites in
report order; ``build_report`` turns a selection into the JSON document.

A row's check either returns its residual, one number, or is a generator
that yields its gaps (arrays or numbers); the residual of a generator is
max |gap| over everything it yields, reduced with one NaN-keeping
``np.max``, and 0.0 when it yields nothing. A row whose check raises or
whose residual is NaN or infinite (so any NaN or infinite gap) gets status
``"error"``, residual ``None`` and ``"error": "<Type>: <message>"``; it
counts as not passed and the remaining rows still run. A non-finite
number in a suite's ``info`` is written as ``None``, and ``stable_json``
refuses any NaN or infinity left, so no document carries one.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections.abc import Callable, Generator

import numpy as np

from . import __version__
from . import clifford as cl
from . import evolution as ev
from . import higher_spin as hs
from . import minkowski as mk
from . import spinor_core as sc

SCHEMA_VERSION = 1

DIMENSION_FLAG = {
    "id": "twist-dimension-formula",
    "paper_anchor": "Appendix 4",
    "note": (
        "the stated closed form (2k+1)(2l+1) for the twist-space dimension "
        "disagrees with the symmetric-power dimension (k+1)(l+1); this artifact "
        "reads each rank as the trace of the symmetrizing projector and uses (k+1)(l+1)"
    ),
}


def stable_json(obj) -> str:
    """Sorted, compact JSON; a NaN or infinity raises ValueError instead of being written."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _finite_or_null(value):
    """``value`` with every non-finite float, in nested dicts and lists too, made None."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def bump(x: np.ndarray) -> np.ndarray:
    """Smooth compactly supported bump on (-1, 1), normalized to peak 1."""
    out = np.zeros_like(np.asarray(x, dtype=float))
    inside = np.abs(x) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    return out / np.exp(-1.0)


def sym_projector(k: int, l: int) -> np.ndarray:
    """The (k, l) symmetrizer as a 2^(k+l) square matrix, by one symmetrize per group.

    The identity is viewed as a rank-2(k+l) spinor whose first k+l axes, the
    row index, carry k undotted-up and l dotted-low tags; symmetrizing those
    groups symmetrizes every column, the input basis spinor, at once.
    """
    dim = 2 ** (k + l)
    tags = (sc.UNDOTTED_UP,) * k + (sc.DOTTED_LOW,) * l
    s = sc.Spinor(np.eye(dim).reshape((2,) * (2 * (k + l))), tags + tags)
    s = sc.symmetrize(sc.symmetrize(s, tuple(range(k))), tuple(range(k, k + l)))
    return s.data.reshape(dim, dim)


def random_sl2(rng: np.random.Generator) -> np.ndarray:
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return mat / np.sqrt(np.linalg.det(mat))


def random_timelike_future(rng: np.random.Generator) -> mk.LorentzVector:
    space = rng.normal(size=3)
    t = float(np.linalg.norm(space) + 0.2 + rng.uniform(0.0, 2.0))
    return mk.LorentzVector(np.array([t, *space]), covariant=True)


def _misses(exc_type: type[Exception], fn, *args) -> float:
    """0.0 when ``fn(*args)`` raises ``exc_type`` (a guard row's pass), else 1.0."""
    try:
        fn(*args)
    except exc_type:
        return 0.0
    return 1.0


def _residual(result) -> float:
    """A returned number as is; a generator's gaps as max |gap|, 0.0 for none.

    Each gap is reduced as it arrives, and ``np.max`` keeps a NaN wherever
    it comes, where a ``max(worst, gap)`` fold drops one after a finite gap.
    """
    if not isinstance(result, Generator):
        return float(result)
    return float(np.max([np.max(np.abs(gap)) for gap in result], initial=0.0))


def _summary(rows: list[dict]) -> dict:
    passed = sum(1 for row in rows if row["status"] == "pass")
    return {"total": len(rows), "passed": passed, "failed": len(rows) - passed}


class Suite:
    """Collects check rows; rows are sorted by id in the final report."""

    def __init__(self, name: str, timings: bool = True):
        self.name = name
        self.timings = timings
        self.checks: list[dict] = []
        self.info: dict = {}

    def check(self, check_id, anchor, tolerance, fn, direction="below") -> None:
        start = time.perf_counter()
        error = None
        try:
            residual = _residual(fn())
            if not math.isfinite(residual):
                raise ValueError(f"non-finite residual {residual}")
        except Exception as exc:  # the row records it; the suite runs on
            residual, error = None, f"{type(exc).__name__}: {exc}"
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        below = direction == "below"
        ok = error is None and (residual <= tolerance if below else residual >= tolerance)
        row = {
            "id": check_id,
            "paper_anchor": anchor,
            "status": "error" if error is not None else ("pass" if ok else "fail"),
            "residual": residual,
            "tolerance": tolerance,
            "direction": direction,
            "runtime_ms": round(elapsed_ms, 3) if self.timings else 0.0,
        }
        if error is not None:
            row["error"] = error
        self.checks.append(row)

    def report(self) -> dict:
        checks = sorted(self.checks, key=lambda c: c["id"])
        out = {"suite": self.name, "checks": checks, "summary": _summary(checks)}
        if self.info:
            out["info"] = _finite_or_null(self.info)
        return out


#: The battery in report order, filled by ``@_suite`` as the bodies below
#: are defined: name -> runner(seed, timings=True, **selection).
SUITES: dict[str, Callable[..., Suite]] = {}


def _suite(body):
    """Register ``body(suite, seed, **selection)`` as the suite it fills.

    The suite is named after the body (``algebra_suite`` records ``algebra``);
    the runner constructs it, runs the body and returns it.
    """
    name = body.__name__.removesuffix("_suite")

    def run(seed: int, timings: bool = True, **selection) -> Suite:
        suite = Suite(name, timings)
        body(suite, seed, **selection)
        return suite

    SUITES[name] = run
    return run


# ---------------------------------------------------------------------------
# algebra suite


@_suite
def algebra_suite(suite: Suite, seed: int) -> None:
    rng = np.random.default_rng(seed)

    suite.check(
        "anticommutator-weyl",
        "Eq. (1)",
        1e-9,
        lambda: cl.dirac_collection_check(cl.weyl_gammas()),
    )
    suite.check(
        "anticommutator-dirac",
        "Eq. (1)",
        1e-9,
        lambda: cl.dirac_collection_check(cl.dirac_gammas()),
    )

    def broken_collection():
        gammas = cl.weyl_gammas()
        gammas[3] = 1j * gammas[3]
        return cl.dirac_collection_check(gammas)

    suite.check(
        "anticommutator-negative-control",
        "Eq. (1)",
        1.0,
        broken_collection,
        direction="above",
    )

    suite.check(
        "commutator-table",
        "(CR)",
        1e-12,
        lambda: cl.check_commutator_relations()["max"],
    )

    def generator_blocks():
        gen_m, gen_n = cl.spin_generators()
        m2, n2 = cl.spin_generators_2x2()
        for i in range(3):
            yield gen_m[i] - np.kron(np.eye(2), m2[i])
            yield gen_n[i] - np.kron(np.diag([1.0, -1.0]), n2[i])

    suite.check("generator-blocks", "(GD)", 1e-12, generator_blocks)

    exp_params = [(rng.normal(size=3) * 0.7, rng.normal(size=3) * 0.7) for _ in range(50)]

    def exp_spin_blocks():
        zero = np.zeros((2, 2))
        for a, b in exp_params:
            s2, s4 = cl.exp_spin(a, b)
            yield s4 - np.block([[s2, zero], [zero, np.linalg.inv(s2.conj().T)]])

    suite.check("exp-spin-blocks", "Appendix 3", 1e-9, exp_spin_blocks)

    rot = np.zeros((3, 4, 4))
    rot[:, 1:, 1:] = -cl.LEVI_CIVITA.transpose(2, 0, 1)  # rot[i][1 + a, 1 + b] = -eps[a, b, i]
    boost = np.zeros((3, 4, 4))
    boost[:, 0, 1:] = boost[:, 1:, 0] = np.eye(3)

    def exp_spin_vector_rep():
        for a, b in exp_params:
            s2, _ = cl.exp_spin(a, b)
            gen = np.einsum("i,iab->ab", a, rot) + np.einsum("i,iab->ab", b, boost)
            yield cl.covering_lambda(s2) - cl.exp_lorentz(gen)

    suite.check("exp-spin-vector-rep", "Appendix 6", 1e-7, exp_spin_vector_rep)

    def covering_examples():
        s2, _ = cl.exp_spin([0, 0, 0], [0, 0, 1])
        lam = cl.covering_lambda(s2)
        yield lam[0, 0] - np.cosh(1.0)
        yield lam[0, 3] - np.sinh(1.0)
        yield lam[3, 0] - np.sinh(1.0)
        full_turn, _ = cl.exp_spin([0, 0, 2 * np.pi], [0, 0, 0])
        yield full_turn + np.eye(2)
        yield cl.covering_lambda(full_turn) - np.eye(4)

    suite.check("covering-map-examples", "Appendix 6", 1e-12, covering_examples)

    def covering_batch():
        # every draw comes first, so a batch that raises leaves the later rows' inputs alone
        draws = [(random_sl2(rng), rng.normal(size=4)) for _ in range(1000)]
        s2 = np.array([s for s, _ in draws])
        lam = cl.covering_lambda(s2)
        yield np.swapaxes(lam, 1, 2) @ mk.ETA @ lam - mk.ETA
        yield cl.covering_lambda(-s2) - lam
        yield cl.covering_lambda(s2[:-1] @ s2[1:]) - lam[:-1] @ lam[1:]
        for (s, x), lam_s in zip(draws, lam):
            lhs = sc.sigma_map(mk.LorentzVector(lam_s @ x))
            yield lhs.data - sc.apply_sl2(sc.sigma_map(mk.LorentzVector(x)), s).data

    suite.check("covering-map-batch", "Appendix 6", 1e-9, covering_batch)

    def intertwiner_planted():
        gammas = cl.weyl_gammas()
        for _ in range(50):
            while True:
                planted = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                if np.linalg.cond(planted) < 100.0:
                    break
            target = np.array([planted @ g @ np.linalg.inv(planted) for g in gammas])
            found = cl.pauli_intertwiner(gammas, target)
            found_inv = np.linalg.inv(found)
            for g, t in zip(gammas, target):
                yield found @ g @ found_inv - t
            # irreducibility forces found = scalar * planted
            ratio = np.linalg.inv(planted) @ found
            lam = np.trace(ratio) / 4.0
            yield np.max(np.abs(ratio - lam * np.eye(4))) / abs(lam)

    suite.check("intertwiner-planted", "Appendix 1", 1e-10, intertwiner_planted)

    def intertwiner_weyl_dirac():
        gw = cl.weyl_gammas()
        gd = cl.dirac_gammas()
        s = cl.pauli_intertwiner(gw, gd)
        s_inv = np.linalg.inv(s)
        for g, t in zip(gw, gd):
            yield s @ g @ s_inv - t

    suite.check("intertwiner-weyl-dirac", "Appendix 1", 1e-10, intertwiner_weyl_dirac)

    def epsilon_identities():
        eps_up = sc.epsilon("upper-undotted")
        eps_low = sc.epsilon("lower-undotted")
        # eps^{AB} eps_{CB} = delta^A_C, contracted on the second slots
        yield sc.contract(eps_up, 1, eps_low, 1).data - np.eye(2)
        yield eps_low.data[0, 1] - 1.0
        yield sc.epsilon("lower-dotted").data - eps_low.data

    suite.check("epsilon-identities", "Appendix 5", 1e-13, epsilon_identities)

    def raise_lower_roundtrip():
        up = sc.Spinor(np.array([1.0, 0.0]), (sc.UNDOTTED_UP,))
        yield sc.raise_lower(up, 0).data - np.array([0.0, 1.0])
        up2 = sc.Spinor(np.array([0.0, 1.0]), (sc.UNDOTTED_UP,))
        yield sc.raise_lower(up2, 0).data - np.array([-1.0, 0.0])
        for tag in (sc.UNDOTTED_UP, sc.UNDOTTED_LOW, sc.DOTTED_UP, sc.DOTTED_LOW):
            for _ in range(20):
                psi = sc.Spinor(rng.normal(size=2) + 1j * rng.normal(size=2), (tag,))
                yield sc.raise_lower(sc.raise_lower(psi, 0), 0).data - psi.data
        for _ in range(20):
            psi = sc.Spinor(rng.normal(size=2) + 1j * rng.normal(size=2), (sc.UNDOTTED_UP,))
            yield abs(sc.contract(sc.raise_lower(psi, 0), 0, psi, 0).item())

    suite.check("raise-lower-roundtrip", "Appendix 5", 1e-13, raise_lower_roundtrip)

    def sigma_isometry():
        yield sc.sigma_map(mk.basis_vector(0)).data - np.eye(2) / np.sqrt(2.0)
        for _ in range(50):
            x = mk.LorentzVector(rng.normal(size=4))
            yield sc.sigma_inv(sc.sigma_map(x)).components - x.components

    suite.check("sigma-isometry", "Appendix 6", 1e-12, sigma_isometry)

    def eta_from_epsilon():
        for a in range(4):
            for b in range(4):
                yield sc.eta_from_eps_check(mk.basis_vector(a), mk.basis_vector(b))
        for _ in range(50):
            x = mk.LorentzVector(rng.normal(size=4))
            y = mk.LorentzVector(rng.normal(size=4))
            yield sc.eta_from_eps_check(x, y)

    suite.check("eta-from-epsilon", "Appendix 6", 1e-12, eta_from_epsilon)

    def covering_diagram():
        for _ in range(100):
            s2 = random_sl2(rng)
            lam = cl.covering_lambda(s2)
            x = mk.LorentzVector(rng.normal(size=4))
            lhs = sc.sigma_map(mk.LorentzVector(lam @ x.components))
            yield lhs.data - sc.apply_sl2(sc.sigma_map(x), s2).data

    suite.check("covering-diagram", "Appendix 6", 1e-9, covering_diagram)

    def frame_invariance_batch():
        for _ in range(100):
            yield sc.frame_invariance_check(random_sl2(rng))["max"]

    suite.check("frame-invariance-batch", "Appendix 8", 1e-9, frame_invariance_batch)

    def clebsch_roundtrip():
        for k in range(1, 5):
            for l in range(3):
                tags = (sc.UNDOTTED_UP,) * (k + 1) + (sc.DOTTED_LOW,) * l
                data = rng.normal(size=(2,) * (k + 1 + l)) + 1j * rng.normal(
                    size=(2,) * (k + 1 + l)
                )
                s = sc.Spinor(data, tags)
                s = sc.symmetrize(s, tuple(range(1, k + 1)))
                if l >= 2:
                    s = sc.symmetrize(s, tuple(range(k + 1, k + 1 + l)))
                yield sc.clebsch_reconstruct(*sc.clebsch_split(s)).data - s.data

    suite.check("clebsch-roundtrip", "Appendix 4", 1e-12, clebsch_roundtrip)

    def clebsch_ranks():
        k, l = 2, 1
        dim = hs.fiber_dim(k, l)
        cols_high, cols_low = [], []
        for vec in np.eye(dim, dtype=complex)[: dim // 2]:  # the slots of phi1
            high, low = sc.clebsch_split(hs.unpack(vec, k, l).phi1)
            cols_high.append(high.data.ravel())
            cols_low.append(low.data.ravel())
        rank_high = np.linalg.matrix_rank(np.array(cols_high).T, tol=1e-10)
        rank_low = np.linalg.matrix_rank(np.array(cols_low).T, tol=1e-10)
        return abs(rank_high - 8) + abs(rank_low - 4)

    suite.check("clebsch-ranks", "Appendix 4", 0.5, clebsch_ranks)

    def sym_dimension_enumeration():
        # the symmetrizer is a projector, so its trace is its rank; the tests
        # check P^2 = P and the rank against a basis enumeration, which keeps
        # LAPACK off the report path
        mismatches = 0
        for k in range(5):
            for l in range(5):
                if round(np.trace(sym_projector(k, l)).real) != sc.sym_dimension(k, l):
                    mismatches += 1
        return float(mismatches)

    suite.check("sym-dimension-enumeration", "Appendix 4", 0.5, sym_dimension_enumeration)
    suite.info["dimension-formula-note"] = DIMENSION_FLAG["note"]


# ---------------------------------------------------------------------------
# symbols suite


@_suite
def symbols_suite(
    suite: Suite, seed: int, pairs: list[tuple[int, int]] | None = None
) -> None:
    rng = np.random.default_rng(seed)
    if pairs is None:
        pairs = [(k, l) for k in range(3) for l in range(3)]

    causal_set = [
        mk.LorentzVector([1.0, 0, 0, 0], covariant=True),
        mk.LorentzVector([1.0, 0, 0, 1.0], covariant=True),
        mk.LorentzVector([1.0, 0, 0, -1.0], covariant=True),
        mk.LorentzVector([0.0, 1.0, 0, 0], covariant=True),
        mk.LorentzVector([0.0, 0, 0, 1.0], covariant=True),
    ]

    for k, l in pairs:
        def factorization(k=k, l=l):
            for _ in range(100):
                xi = mk.LorentzVector(rng.normal(size=4), covariant=True)
                mass = float(rng.normal())
                yield hs.check_prenormal_factorization(xi, mass, k, l)

        suite.check(f"factorization-k{k}-l{l}", "Prop. 1", 1e-12, factorization)

        def square_causal(k=k, l=l):
            for xi in causal_set:
                yield hs.check_prenormal_factorization(xi, 0.5, k, l)

        suite.check(f"square-causal-k{k}-l{l}", "Prop. 1", 1e-12, square_causal)

        def closed_form(k=k, l=l):
            # own generator, so the draws of the other rows stay as they were
            xi_rng = np.random.default_rng([seed, k, l])
            directions = [
                mk.LorentzVector(xi_rng.normal(size=4), covariant=True) for _ in range(2)
            ]
            return hs.closed_form_residual(k, l, directions)

        suite.check(f"closed-form-k{k}-l{l}", "Prop. 1", 1e-12, closed_form)

    def rank_mismatch_guard():
        vec = rng.normal(size=hs.fiber_dim(1, 0)) + 0j
        return _misses(hs.KNotEqualL, hs.gen_dirac_adjoint, hs.unpack(vec, 1, 0))

    suite.check("adjoint-rank-guard", "Definition 2", 0.5, rank_mismatch_guard)

    def rand_pair(k):
        dim = hs.fiber_dim(k, k)
        a = hs.unpack(rng.normal(size=dim) + 1j * rng.normal(size=dim), k, k)
        b = hs.unpack(rng.normal(size=dim) + 1j * rng.normal(size=dim), k, k)
        return a, b

    for k in sorted({k for k, l in pairs if k == l}):
        def pairing_hermitian(k=k):
            for _ in range(20):
                a, b = rand_pair(k)
                yield abs(np.conj(hs.gen_pairing(a, b)) - hs.gen_pairing(b, a))

        suite.check(f"pairing-hermitian-k{k}", "Definition 2", 1e-12, pairing_hermitian)

        def self_adjoint_symbol(k=k):
            for _ in range(20):
                a, b = rand_pair(k)
                xi = mk.LorentzVector(rng.normal(size=4), covariant=True)
                lhs = hs.gen_pairing(a, hs.apply_symbol(xi, b))
                yield abs(lhs - hs.gen_pairing(hs.apply_symbol(xi, a), b))

        suite.check(f"self-adjoint-symbol-k{k}", "Remark 5", 1e-12, self_adjoint_symbol)

        def xi_form_hermitian(k=k):
            for _ in range(20):
                a, b = rand_pair(k)
                xi = mk.LorentzVector(rng.normal(size=4), covariant=True)
                yield abs(np.conj(hs.xi_form(a, b, xi)) - hs.xi_form(b, a, xi))

        suite.check(f"xi-form-hermitian-k{k}", "Remark 5", 1e-12, xi_form_hermitian)

    def dirac_reduction():
        for _ in range(20):
            a = hs.DiracSpinor(rng.normal(size=2) + 1j * rng.normal(size=2),
                               rng.normal(size=2) + 1j * rng.normal(size=2))
            b = hs.DiracSpinor(rng.normal(size=2) + 1j * rng.normal(size=2),
                               rng.normal(size=2) + 1j * rng.normal(size=2))
            lhs = hs.dirac_adjoint(a)(b)
            yield abs(lhs - hs.gen_pairing(a.as_higher(), b.as_higher()))

    suite.check("dirac-reduction", "Example 1", 1e-13, dirac_reduction)

    def positive_example():
        phi = hs.DiracSpinor([1.0, 0.0], [1.0, 0.0]).as_higher()
        value = hs.xi_form(phi, phi, mk.basis_vector(0, covariant=True))
        return abs(value - 2.0)

    suite.check("xi-form-positive-example", "Example 1", 1e-13, positive_example)


# ---------------------------------------------------------------------------
# signature suite


@_suite
def signature_suite(suite: Suite, seed: int, ks: tuple[int, ...] = (0, 1, 2)) -> None:
    rng = np.random.default_rng(seed)
    e0 = mk.basis_vector(0, covariant=True)

    for k in ks:
        def gram_dimension(k=k):
            return abs(hs.gram_matrix(k, e0).shape[0] - 4 * (k + 1) ** 2)

        suite.check(f"gram-dimension-k{k}", "Remark 3", 0.5, gram_dimension)

        triple = hs.gram_signature(k, e0)
        suite.info[f"signature-k{k}"] = list(triple)

        if k == 0:
            def signature_positive(k=k):
                mismatches = 0 if hs.gram_signature(0, e0) == (4, 0, 0) else 1
                for _ in range(20):
                    xi = random_timelike_future(rng)
                    if hs.gram_signature(0, xi) != (4, 0, 0):
                        mismatches += 1
                return float(mismatches)

            suite.check("signature-k0-positive", "Example 1", 0.5, signature_positive)

            def signature_minus_xi():
                past = mk.LorentzVector([-1.0, 0, 0, 0], covariant=True)
                got = hs.gram_signature(0, past, require_future=False)
                return 0.0 if got == (0, 4, 0) else 1.0

            suite.check("signature-k0-minus-xi", "Example 1", 0.5, signature_minus_xi)

        if k >= 1:  # indefinite from k = 1 on
            def witnesses(k=k):
                (plus, q_plus), (minus, q_minus) = hs.witness_pair(k, e0)
                ok = q_plus > 0 and q_minus < 0
                sig = hs.gram_signature(k, e0)
                ok = ok and sig[0] >= 1 and sig[1] >= 1
                return 0.0 if ok else 1.0

            row = "report" if k == 1 else "witnesses"  # the k = 1 row keeps its old id
            suite.check(f"signature-k{k}-{row}", "Remark 6", 0.5, witnesses)

        def boost_invariance(k=k):
            base = hs.gram_signature(k, e0)
            mismatches = 0
            for _ in range(20):
                s2, _ = cl.exp_spin(rng.normal(size=3) * 0.5, rng.normal(size=3) * 0.5)
                lam = cl.covering_lambda(s2)
                xi = mk.LorentzVector(lam @ np.array([1.0, 0, 0, 0])).lowered()
                if hs.gram_signature(k, xi) != base:
                    mismatches += 1
            return float(mismatches)

        suite.check(f"signature-boost-invariance-k{k}", "Remark 6", 0.5, boost_invariance)

    def positivity_kron():
        wrong = 0
        for dim in range(1, 6):
            basis = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            form = basis.conj().T @ basis + 0.1 * np.eye(dim)
            if not hs.twisted_positivity_check(form):
                wrong += 1
            eig, vec = np.linalg.eigh(form)
            eig_flipped = eig.copy()
            eig_flipped[0] = -eig_flipped[0]
            flipped = vec @ np.diag(eig_flipped) @ vec.conj().T
            if hs.twisted_positivity_check(flipped):
                wrong += 1
        return float(wrong)

    suite.check("positivity-kron", "Lemma 4", 0.5, positivity_kron)

    def not_future_guard():
        spacelike = mk.LorentzVector([0.0, 1.0, 0, 0], covariant=True)
        return _misses(hs.NotTimelikeFuture, hs.gram_signature, 0, spacelike)

    suite.check("not-future-guard", "Remark 6", 0.5, not_future_guard)


# ---------------------------------------------------------------------------
# evolution suite


def packet_initial(cfg: ev.EvolutionConfig, fiber: np.ndarray, width: float, mode: int) -> np.ndarray:
    z = cfg.zgrid()
    envelope = bump((z - cfg.extent / 2) / width) * np.exp(
        1j * 2 * np.pi * mode * z / cfg.extent
    )
    return envelope[:, None] * fiber[None, :]


# acceptance bounds of green_pulse's residual and pre-support leak, shared by
# the green-residual-*/green-support-* rows and ``spinlab green``'s exit code
GREEN_RESIDUAL_TOL = 5e-2
GREEN_SUPPORT_TOL = 1e-8


def green_pulse(mass: float, n_pts: int) -> tuple[ev.GridField, float, float]:
    """The retarded Green operator on the built-in (t, z) bump pulse.

    The pulse sits at t = 4, z = 8 with half-width 2 on a 16-long domain,
    sampled on the aligned dt = dz grid with n_pts // 2 steps, and feeds
    fiber components 0 and 3. Returns (G f, green_residual, pre-support
    leak), the leak being max |G f| over the levels more than one before
    the source support, relative to max |G f|.

    The source is allocated first, so an impossible size fails before any
    other grid-sized work. The pulse is the outer product of a t-bump and a
    z-bump written straight into it, and |G f| is reduced one level at a
    time: no grid-sized array other than the source and G f is held.
    """
    extent = 16.0
    dz = extent / n_pts
    cfg = ev.EvolutionConfig(
        mass=mass, k=0, l=0, extent=extent, points=n_pts, dt=dz, steps=n_pts // 2
    )
    data = np.zeros((cfg.steps + 1, n_pts, 4), dtype=complex)
    t_bump = bump((cfg.times() - extent / 4) / (extent / 8))
    z_bump = bump((cfg.zgrid() - extent / 2) / (extent / 8))
    np.multiply.outer(t_bump, z_bump, out=data[:, :, 0].real)
    np.multiply(data[:, :, 0].real, 0.5, out=data[:, :, 3].imag)
    source = ev.GridField(cfg, data)
    result = ev.retarded_green_apply(source, cfg)
    residual = ev.green_residual(result, source)
    # a level's largest source value is its t-bump times the z-bump's peak
    first = int(np.nonzero(t_bump * z_bump.max())[0][0])
    level_peaks = np.array([np.abs(level).max() for level in result.data])
    peak = float(level_peaks.max())
    before = float(level_peaks[: first - 1].max()) if first > 1 else 0.0
    return result, residual, before / peak


def conservation_drift(k: int) -> float:
    """Slice-product drift of a rank-(k, k) packet over 200 steps, stored nowhere."""
    n_pts, extent = 1024, 32.0
    dz = extent / n_pts
    cfg = ev.EvolutionConfig(
        mass=1.0, k=k, l=k, extent=extent, points=n_pts, dt=0.5 * dz, steps=200
    )
    if k == 0:
        fiber = ev.plane_wave(2 * np.pi * 4 / extent, 1.0).u
    else:
        (plus, _), _ = hs.witness_pair(k)
        fiber = hs.pack(plus)
    levels = ev.leapfrog(packet_initial(cfg, fiber, 4.0, 6), cfg)
    return ev.conservation_fold(cfg, levels)["drift"]


@_suite
def evolution_suite(suite: Suite, seed: int) -> None:
    rng = np.random.default_rng(seed)

    suite.check("conservation-k0", "Theorem 2", 1e-5, lambda: conservation_drift(0))
    suite.check("conservation-k2", "Theorem 2", 1e-5, lambda: conservation_drift(2))

    def convergence_order():
        errors = []
        for n_pts in (256, 512, 1024):
            extent = 8.0
            dz = extent / n_pts
            steps = int(round(2.0 / (0.5 * dz)))
            cfg = ev.EvolutionConfig(
                mass=1.0, k=0, l=0, extent=extent, points=n_pts, dt=0.5 * dz, steps=steps
            )
            wave = ev.plane_wave(2 * np.pi * 2 / extent, 1.0)
            z = cfg.zgrid()
            final = ev.final_level(wave.sample(0.0, z), cfg)
            exact = wave.sample(cfg.steps * cfg.dt, z)
            errors.append(float(np.sqrt(dz * np.sum(np.abs(final - exact) ** 2))))
        orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(2)]
        suite.info["convergence-orders"] = [round(o, 3) for o in orders]
        return np.min(orders)

    suite.check("convergence-order", "Theorem 2", 1.8, convergence_order, direction="above")

    def divergence_current():
        n_pts, extent = 512, 16.0
        dz = extent / n_pts
        cfg = ev.EvolutionConfig(
            mass=1.0, k=0, l=0, extent=extent, points=n_pts, dt=0.5 * dz, steps=64
        )
        z = cfg.zgrid()
        wave_a = ev.plane_wave(2 * np.pi * 3 / extent, 1.0, branch="+")
        wave_b = ev.plane_wave(2 * np.pi * 5 / extent, 1.0, branch="-")
        levels_a = ev.leapfrog(wave_a.sample(0.0, z), cfg)
        levels_b = ev.leapfrog(wave_b.sample(0.0, z), cfg)
        return ev.divergence_fold(cfg, levels_a, levels_b)

    suite.check("divergence-current", "Theorem 2", 5e-3, divergence_current)

    # each study is shared by its row group; the cache lives for this suite run,
    # and a study that raises is not cached, so each row of its group records it
    @functools.cache
    def causality(mass: float) -> dict:
        n_pts, extent = 1024, 51.2
        dz = extent / n_pts
        cfg = ev.EvolutionConfig(
            mass=mass, k=0, l=0, extent=extent, points=n_pts, dt=0.98 * dz, steps=100
        )
        z = cfg.zgrid()
        envelope = bump((z - extent / 2) / (10 * dz))
        u0 = np.zeros((n_pts, 4), dtype=complex)
        u0[:, 0] = envelope
        u0[:, 2] = 0.3 * envelope
        return ev.causal_support_check(u0, cfg)

    for mass in (0.0, 2.0):
        for name, tol, key in (("exact", 0.0, "exact_outside"), ("cone", 1e-10, "cone_leak_rel")):
            suite.check(f"causality-{name}-m{int(mass)}", "Theorem 1(c)", tol,
                        lambda mass=mass, key=key: causality(mass)[key])

    @functools.cache
    def green_study(mass: float) -> dict:
        residuals = {}
        support = {}
        for n_pts in (128, 256, 512):
            _, residuals[n_pts], support[n_pts] = green_pulse(mass, n_pts)
        return {"residuals": residuals, "support": support}

    for mass in (0.0, 1.0):
        tag = f"m{int(mass)}"

        def green_residual(mass=mass, tag=tag):
            res = green_study(mass)["residuals"]
            suite.info[f"green-residuals-{tag}"] = {
                str(n): round(v, 6) for n, v in res.items()
            }
            return res[512]

        def green_monotone(mass=mass):
            res = green_study(mass)["residuals"]
            return (res[n] / res[n // 2] for n in (256, 512))

        suite.check(f"green-residual-{tag}", "Theorem 1(b)", GREEN_RESIDUAL_TOL, green_residual)
        suite.check(f"green-monotone-{tag}", "Theorem 1(b)", 0.99, green_monotone)
        suite.check(
            f"green-support-{tag}",
            "Theorem 1(b)",
            GREEN_SUPPORT_TOL,
            lambda mass=mass: (leak for leak in green_study(mass)["support"].values()),
        )

    def plane_wave_onshell():
        for k in (0, 1):
            for mass in (0.0, 1.0, 2.5):
                for branch in ("+", "-"):
                    for pol in range(min((k + 1) ** 2, 2)):
                        wave = ev.plane_wave(1.3, mass, k, k, branch, pol)
                        p_cov = mk.LorentzVector(
                            np.array([wave.sign * wave.omega, 0, 0, -wave.p]),
                            covariant=True,
                        )
                        mat = hs.symbol_matrix(k, k, p_cov)
                        yield np.linalg.norm(mat @ wave.u - mass * wave.u)

    suite.check("plane-wave-onshell", "Theorem 1(c)", 1e-12, plane_wave_onshell)

    suite.check(
        "zero-projection-guard",
        "Theorem 1(c)",
        0.5,
        lambda: _misses(ev.ZeroProjection, ev.plane_wave, 0.0, 0.0),
    )

    def massless_transport():
        n_pts, extent = 512, 25.6
        dz = extent / n_pts
        steps = n_pts // 4
        cfg = ev.EvolutionConfig(
            mass=0.0, k=0, l=0, extent=extent, points=n_pts, dt=0.5 * dz, steps=steps
        )
        z = cfg.zgrid()
        wave = ev.plane_wave(2 * np.pi * 8 / extent, 0.0)
        u0 = (bump((z - extent / 2) / 3.0) * wave.phase(0.0, z))[:, None] * wave.u[None, :]
        final = ev.final_level(u0, cfg)
        shift = int(round(steps * cfg.dt / dz))
        err = float(np.sqrt(dz * np.sum(np.abs(final - np.roll(u0, shift, axis=0)) ** 2)))
        norm = float(np.sqrt(dz * np.sum(np.abs(u0) ** 2)))
        return err / norm

    suite.check("massless-transport", "Theorem 1(c)", 5e-2, massless_transport)

    def fiber_form_crosscheck():
        n_pts, extent = 16, 4.0
        dz = extent / n_pts
        cfg = ev.EvolutionConfig(
            mass=0.5, k=1, l=1, extent=extent, points=n_pts, dt=0.5 * dz, steps=1
        )
        dim = cfg.fiber
        data_a = rng.normal(size=(2, n_pts, dim)) + 1j * rng.normal(size=(2, n_pts, dim))
        data_b = rng.normal(size=(2, n_pts, dim)) + 1j * rng.normal(size=(2, n_pts, dim))
        packed = ev.conservation_fold(cfg, data_a[:1], data_b[:1])["initial"]
        e0 = mk.basis_vector(0, covariant=True)
        semantic = sum(
            hs.xi_form(hs.unpack(a, cfg.k, cfg.l), hs.unpack(b, cfg.k, cfg.l), e0)
            for a, b in zip(data_a[0], data_b[0])
        ) * dz
        return abs(packed - semantic)

    suite.check("slice-product-crosscheck", "Theorem 2", 1e-12, fiber_form_crosscheck)


# ---------------------------------------------------------------------------
# the JSON document


def build_report(
    seed: int,
    timings: bool = True,
    select: dict[str, dict] | None = None,
) -> dict:
    """The versioned JSON document of the selected suites, in table order.

    ``select`` maps a suite name to its keyword selection (``pairs`` for
    ``symbols``, ``ks`` for ``signature``); by default every suite runs with
    its default selection. The summary status is ``"pass"`` only when every
    row passed.
    """
    if select is None:
        select = dict.fromkeys(SUITES, {})
    reports = [
        run(seed, timings, **select[name]).report()
        for name, run in SUITES.items()
        if name in select
    ]
    summary = _summary([row for report in reports for row in report["checks"]])
    summary["status"] = "pass" if summary["failed"] == 0 else "fail"
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "spinlab", "version": __version__},
        "seed": seed,
        "tol_scale": 1.0,  # a schema-1 field: tolerances are fixed; schema 2 drops it
        "suites": reports,
        "flags": [DIMENSION_FLAG],
        "summary": summary,
    }
