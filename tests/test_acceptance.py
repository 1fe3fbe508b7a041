"""Release-gating acceptance battery.

Ten end-to-end criteria with pinned tolerances and runtime budgets, one test
per criterion. Each test prints a single summary line (visible with -s or on
failure) and asserts the full budget, so the pytest -v listing doubles as the
acceptance report.
"""

import time

import numpy as np

from spinlab import checks
from spinlab import clifford as cl
from spinlab import evolution as ev
from spinlab import higher_spin as hs
from spinlab import minkowski as mk
from spinlab import spinor_core as sc

E0_COV = mk.basis_vector(0, covariant=True)


def _line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_sl2(rng):
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return mat / np.sqrt(np.linalg.det(mat))


def _bump(x):
    out = np.zeros_like(np.asarray(x, dtype=float))
    inside = np.abs(x) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    return out / np.exp(-1.0)


def test_criterion_01_algebra_suite_under_budget():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = max(
        cl.dirac_collection_check(cl.weyl_gammas()),
        cl.dirac_collection_check(cl.dirac_gammas()),
        cl.check_commutator_relations()["max"],
    )
    gen_m, gen_n = cl.spin_generators()
    m2, n2 = cl.spin_generators_2x2()
    for i in range(3):
        block_m = np.zeros((4, 4), dtype=complex)
        block_m[:2, :2] = m2[i]
        block_m[2:, 2:] = m2[i]
        block_n = np.zeros((4, 4), dtype=complex)
        block_n[:2, :2] = n2[i]
        block_n[2:, 2:] = -n2[i]
        worst = max(
            worst,
            float(np.max(np.abs(gen_m[i] - block_m))),
            float(np.max(np.abs(gen_n[i] - block_n))),
        )
    for _ in range(100):
        worst = max(worst, sc.frame_invariance_check(_random_sl2(rng))["max"])
    elapsed = time.perf_counter() - start
    _line(
        "criterion 1 (algebra suite)",
        worst < 1e-9 and elapsed < 5.0,
        f"max residual {worst:.3e} (< 1e-9), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_covering_map_batch():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    prev = None
    for _ in range(1000):
        s2 = _random_sl2(rng)
        lam = cl.covering_lambda(s2)
        if not mk.is_restricted_lorentz(lam):
            worst = 1.0
            break
        worst = max(worst, float(np.max(np.abs(cl.covering_lambda(-s2) - lam))))
        x = mk.LorentzVector(rng.normal(size=4))
        lhs = sc.sigma_map(mk.LorentzVector(lam @ x.components))
        rhs = sc.apply_sl2(sc.sigma_map(x), s2)
        worst = max(worst, float(np.max(np.abs(lhs.data - rhs.data))))
        if prev is not None:
            composed = cl.covering_lambda(prev @ s2)
            worst = max(
                worst, float(np.max(np.abs(composed - cl.covering_lambda(prev) @ lam)))
            )
        prev = s2
    elapsed = time.perf_counter() - start
    _line(
        "criterion 2 (covering map, 1000 samples)",
        worst < 1e-9 and elapsed < 10.0,
        f"max residual {worst:.3e} (< 1e-9), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_03_intertwiner_recovers_planted_conjugation():
    rng = np.random.default_rng(103)
    gammas = cl.weyl_gammas()
    worst_conj = 0.0
    worst_scalar = 0.0
    for _ in range(50):
        while True:
            planted = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            if np.linalg.cond(planted) < 100.0:
                break
        target = np.array([planted @ g @ np.linalg.inv(planted) for g in gammas])
        found = cl.pauli_intertwiner(gammas, target)
        found_inv = np.linalg.inv(found)
        worst_conj = max(
            worst_conj,
            max(
                float(np.max(np.abs(found @ g @ found_inv - t)))
                for g, t in zip(gammas, target)
            ),
        )
        ratio = np.linalg.inv(planted) @ found
        scalar = np.trace(ratio) / 4.0
        worst_scalar = max(
            worst_scalar,
            float(np.max(np.abs(ratio - scalar * np.eye(4)))) / abs(scalar),
        )
    ok = worst_conj < 1e-10 and worst_scalar < 1e-9
    _line(
        "criterion 3 (intertwiner round-trip, 50 trials)",
        ok,
        f"conjugation {worst_conj:.3e} (< 1e-10), scalar recovery {worst_scalar:.3e}",
    )


def test_criterion_04_hyperbolic_factorization():
    rng = np.random.default_rng(104)
    worst = 0.0
    for k in range(3):
        for l in range(3):
            for _ in range(100):
                xi = mk.LorentzVector(rng.normal(size=4), covariant=True)
                worst = max(
                    worst, hs.check_prenormal_factorization(xi, float(rng.normal()), k, l)
                )
    _line(
        "criterion 4 (symbol factorization, k,l in {0,1,2}^2 x 100 xi)",
        worst < 1e-12,
        f"max residual {worst:.3e} (< 1e-12)",
    )


def test_criterion_05_gram_definiteness_and_invariance():
    rng = np.random.default_rng(105)
    ok = True
    detail = []
    for _ in range(20):
        space = rng.normal(size=3)
        t = float(np.linalg.norm(space) + 0.2 + rng.uniform(0, 2))
        xi = mk.LorentzVector(np.array([t, *space]), covariant=True)
        if hs.gram_signature(0, xi) != (4, 0, 0):
            ok = False
    detail.append("k=0 is (4,0,0) on 20 random timelike future directions")
    sig2 = hs.gram_signature(2, E0_COV)
    (plus, q_plus), (minus, q_minus) = hs.witness_pair(2, E0_COV)
    witnessed = (
        sig2[0] >= 1
        and sig2[1] >= 1
        and q_plus > 0
        and q_minus < 0
        and abs(hs.xi_form(plus, plus, E0_COV).real - q_plus) < 1e-10
        and abs(hs.xi_form(minus, minus, E0_COV).real - q_minus) < 1e-10
    )
    ok = ok and witnessed
    detail.append(f"k=2 signature {sig2} with certified witnesses "
                  f"(q+ = {q_plus:.3f}, q- = {q_minus:.3f})")
    base0 = hs.gram_signature(0)
    base2 = hs.gram_signature(2)
    for _ in range(20):
        s2, _ = cl.exp_spin(rng.normal(size=3) * 0.5, rng.normal(size=3) * 0.5)
        lam = cl.covering_lambda(s2)
        xi = mk.LorentzVector(lam @ np.array([1.0, 0, 0, 0])).lowered()
        if hs.gram_signature(0, xi) != base0 or hs.gram_signature(2, xi) != base2:
            ok = False
    detail.append("signatures exactly boost-invariant over 20 random frames")
    sig1 = hs.gram_signature(1)  # reported, not asserted
    detail.append(f"k=1 signature computed: {sig1}")
    _line("criterion 5 (definiteness and signatures)", ok, "; ".join(detail))


def test_criterion_06_twisted_positivity_lemma():
    rng = np.random.default_rng(106)
    ok = True
    for dim in range(1, 6):
        basis = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        form = basis.conj().T @ basis + 0.1 * np.eye(dim)
        if not hs.twisted_positivity_check(form):
            ok = False
        eig, vec = np.linalg.eigh(form)
        eig[0] = -eig[0]
        flipped = vec @ np.diag(eig) @ vec.conj().T
        if hs.twisted_positivity_check(flipped):
            ok = False
    _line(
        "criterion 6 (twisted positivity, dims 1..5)",
        ok,
        "positive forms accepted, single flipped eigenvalue rejected",
    )


def test_criterion_07_conserved_slice_product_and_convergence():
    start = time.perf_counter()
    drifts = {}
    for k in (0, 2):
        extent, n_pts = 32.0, 1024
        dz = extent / n_pts
        cfg = ev.EvolutionConfig(
            mass=1.0, k=k, l=k, extent=extent, points=n_pts, dt=0.5 * dz, steps=200
        )
        if k == 0:
            fiber = ev.plane_wave(2 * np.pi * 4 / extent, 1.0).u
        else:
            fiber = hs.pack(hs.witness_pair(k)[0][0])
        z = cfg.zgrid()
        envelope = _bump((z - extent / 2) / 4.0) * np.exp(1j * 2 * np.pi * 6 * z / extent)
        levels = ev.leapfrog(envelope[:, None] * fiber[None, :], cfg)
        drifts[k] = ev.conservation_fold(cfg, levels)["drift"]
    errors = []
    for n_pts in (256, 512, 1024):
        extent = 8.0
        dz = extent / n_pts
        cfg = ev.EvolutionConfig(
            mass=1.0, k=0, l=0, extent=extent, points=n_pts, dt=0.5 * dz,
            steps=int(round(2.0 / (0.5 * dz))),
        )
        wave = ev.plane_wave(2 * np.pi * 2 / extent, 1.0)
        z = cfg.zgrid()
        final = ev.final_level(wave.sample(0.0, z), cfg)
        exact = wave.sample(cfg.steps * cfg.dt, z)
        errors.append(float(np.sqrt(dz * np.sum(np.abs(final - exact) ** 2))))
    orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(2)]
    elapsed = time.perf_counter() - start
    ok = max(drifts.values()) < 1e-5 and min(orders) >= 1.8 and elapsed < 60.0
    _line(
        "criterion 7 (slice-product conservation and convergence)",
        ok,
        f"drift k=0 {drifts[0]:.3e}, k=2 {drifts[2]:.3e} (< 1e-5); "
        f"orders {orders[0]:.2f}, {orders[1]:.2f} (>= 1.8); {elapsed:.1f}s (< 60s)",
    )


def test_criterion_08_causal_support():
    results = {}
    for mass in (0.0, 2.0):
        extent, n_pts = 51.2, 1024
        dz = extent / n_pts
        cfg = ev.EvolutionConfig(
            mass=mass, k=0, l=0, extent=extent, points=n_pts, dt=0.98 * dz, steps=100
        )
        z = cfg.zgrid()
        u0 = np.zeros((n_pts, 4), dtype=complex)
        envelope = _bump((z - extent / 2) / (10 * dz))
        u0[:, 0] = envelope
        u0[:, 2] = 0.3 * envelope
        results[mass] = ev.causal_support_check(u0, cfg)
    ok = all(
        rep["exact_outside"] == 0.0 and rep["cone_leak_rel"] < 1e-10
        for rep in results.values()
    )
    _line(
        "criterion 8 (causal support, m in {0, 2})",
        ok,
        "; ".join(
            f"m={m:g}: discrete-cone leak {rep['exact_outside']:.1e} (exact 0), "
            f"continuum+3dz leak {rep['cone_leak_rel']:.1e} (< 1e-10)"
            for m, rep in results.items()
        ),
    )


def test_criterion_09_green_identity_and_support():
    ok = True
    details = []
    for mass in (0.0, 1.0):
        residuals = []
        support = 0.0
        for n_pts in (128, 256, 512):
            extent = 16.0
            dz = extent / n_pts
            cfg = ev.EvolutionConfig(
                mass=mass, k=0, l=0, extent=extent, points=n_pts, dt=dz,
                steps=n_pts // 2,
            )
            z = cfg.zgrid()
            t = cfg.times()
            tt, zz = np.meshgrid(t, z, indexing="ij")
            profile = _bump((tt - extent / 4) / (extent / 8)) * _bump(
                (zz - extent / 2) / (extent / 8)
            )
            data = np.zeros((cfg.steps + 1, n_pts, 4), dtype=complex)
            data[:, :, 0] = profile
            data[:, :, 3] = 0.5j * profile
            source = ev.GridField(cfg, data)
            result = ev.retarded_green_apply(source, cfg)
            residuals.append(ev.green_residual(result, source))
            first = int(np.nonzero(np.max(np.abs(data), axis=(1, 2)))[0][0])
            peak = float(np.max(np.abs(result.data)))
            support = max(support, float(np.max(np.abs(result.data[: first - 1]))) / peak)
        monotone = residuals[1] < residuals[0] and residuals[2] < residuals[1]
        ok = ok and residuals[2] < 5e-2 and monotone and support < 1e-8
        details.append(
            f"m={mass:g}: residuals {residuals[0]:.2e} > {residuals[1]:.2e} > "
            f"{residuals[2]:.2e} (< 5e-2 at N=512), support leak {support:.1e} (< 1e-8)"
        )
    _line("criterion 9 (Green identity)", ok, "; ".join(details))


def test_criterion_10_bookkeeping_and_report_flag():
    worst = 0.0
    mismatches = 0
    for k in range(5):
        for l in range(5):
            cols = []
            for idx in range(2 ** (k + l)):
                data = np.zeros(2 ** (k + l))
                data[idx] = 1.0
                s = sc.Spinor(
                    data.reshape((2,) * (k + l)),
                    (sc.UNDOTTED_UP,) * k + (sc.DOTTED_LOW,) * l,
                )
                if k >= 2:
                    s = sc.symmetrize(s, tuple(range(k)))
                if l >= 2:
                    s = sc.symmetrize(s, tuple(range(k, k + l)))
                cols.append(s.data.ravel())
            rank = int(np.linalg.matrix_rank(np.array(cols).T, tol=1e-10))
            if rank != sc.sym_dimension(k, l):
                mismatches += 1
    rng = np.random.default_rng(110)
    for k in range(1, 5):
        for l in range(3):
            tags = (sc.UNDOTTED_UP,) * (k + 1) + (sc.DOTTED_LOW,) * l
            shape = (2,) * (k + 1 + l)
            s = sc.Spinor(rng.normal(size=shape) + 1j * rng.normal(size=shape), tags)
            s = sc.symmetrize(s, tuple(range(1, k + 1)))
            if l >= 2:
                s = sc.symmetrize(s, tuple(range(k + 1, k + 1 + l)))
            high, low = sc.clebsch_split(s)
            rec = sc.clebsch_reconstruct(high, low)
            worst = max(worst, float(np.max(np.abs(rec.data - s.data))))
    report = checks.build_report(seed=0, timings=False)
    flags = [flag["id"] for flag in report["flags"]]
    flag_present = "twist-dimension-formula" in flags
    report_pass = report["summary"]["status"] == "pass"
    ok = mismatches == 0 and worst < 1e-12 and flag_present and report_pass
    _line(
        "criterion 10 (representation bookkeeping)",
        ok,
        f"dimension enumeration mismatches {mismatches} (k,l <= 4); clebsch "
        f"round-trip {worst:.3e} (< 1e-12); dimension-formula flag present: "
        f"{flag_present}; full report status: {report['summary']['status']}",
    )
