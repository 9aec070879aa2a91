#!/usr/bin/env python3
"""Self-test of the benchmark's checks, in seconds and without the workloads.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Small race, resist, generate and
verify outputs are produced with the CLI; each check must accept them and
reject each corrupted copy (f* shifted by 1e-9 relative, one label flipped,
one entry of U perturbed, a trace row dropped, a wrong a_norm).  Exit code
0 when every check behaves, 1 otherwise.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import reference as ref_mod

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_work" / "selftest"
SIGMA, ZETA = 1.45, 0.9
results = []


def expect(label, problems, accept):
    ok = (not problems) == accept
    results.append(ok)
    verdict = "accepts" if accept else "rejects"
    print(f"{'PASS' if ok else 'FAIL'} {verdict} {label}"
          + ("" if ok else f": {problems or 'no problem found'}"))


def cli(*argv):
    from hardlogit import cli as hl_cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = hl_cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def flip_label(path, fmt, row):
    lines = path.read_text().splitlines(keepends=True)
    i = row + (1 if fmt == "csv" else 0)
    if fmt == "csv":
        head, _, lab = lines[i].rstrip("\n").rpartition(",")
        lines[i] = f"{head},{-int(lab)}\n"
    else:
        lab, _, rest = lines[i].partition(" ")
        lines[i] = f"{-int(lab)} {rest}"
    bad = path.with_name("flipped_" + path.name)
    bad.write_text("".join(lines))
    return bad


def test_a_norm_reference():
    worst = 0.0
    for variant in ("fourblock", "twoblock"):
        for k in list(range(1, 41)) + [100, 200]:
            ref = ref_mod.Reference(k, SIGMA, ZETA, variant)
            a, _ = ref_mod.dense_a(k, SIGMA, ZETA, variant)
            svd = np.linalg.norm(a, 2)
            worst = max(worst, abs(ref.a_norm - svd) / svd)
    expect(f"closed-form ||A|| against dense SVD (max {worst:.1e} relative)",
           [] if worst < 1e-15 else [f"{worst:.2e}"], True)


def test_race():
    for method in ("agd", "denseprobe"):
        T = 6
        rc, _ = cli("race", "--method", method, "--T", T, "--sigma", SIGMA, "--zeta", ZETA,
                    "--out", OUT, "--strict", "--no-timestamp")
        ref = ref_mod.Reference(2 * T, SIGMA, ZETA)
        report = json.loads((OUT / f"report_{method}_T{T}.json").read_text())
        trace = ref_mod.read_trace(OUT / f"trace_{method}_T{T}.csv")
        expect(f"race {method} cell", (["exit"] if rc else [])
               + ref_mod.check_race_cell(report, trace, method, T, ref), True)
        for drop in (0, T // 2, T):
            expect(f"race {method} trace with row {drop} dropped",
                   ref_mod.check_race_cell(report, np.delete(trace, drop, axis=0),
                                           method, T, ref), False)
    expect("program a_norm (power iteration)", ref_mod.check_a_norm(report, ref), False)
    exact = {"measured": {"a_norm": ref.a_norm}}
    expect("exact a_norm", ref_mod.check_a_norm(exact, ref), True)
    wrong = {"measured": {"a_norm": ref.a_norm * (1 + 1e-9)}}
    expect("a_norm off by 1e-9 relative", ref_mod.check_a_norm(wrong, ref), False)


def test_resist():
    method, T = "denseprobe", 4
    stem = f"resist_{method}_T{T}"
    rc, _ = cli("resist", "--method", method, "--T", T, "--sigma", SIGMA, "--zeta", ZETA,
                "--out", OUT, "--strict", "--no-timestamp")
    ref = ref_mod.Reference(4 * T + 2, SIGMA, ZETA)
    report = json.loads((OUT / f"report_{stem}.json").read_text())
    trace = ref_mod.read_trace(OUT / f"trace_{stem}.csv")
    u = ref_mod.read_matrix_csv(OUT / f"rotation_{stem}.csv")
    libsvm = OUT / f"dataset_{stem}.libsvm"

    def check(report=report, trace=trace, u=u, libsvm=libsvm):
        return ref_mod.check_resist(report, trace, u, libsvm, method, T, ref)

    expect("resist run", (["exit"] if rc else []) + check(), True)
    bad_u = u.copy()
    bad_u[ref.k // 3, ref.k // 2] += 1e-9
    expect("resist rotation with one entry perturbed by 1e-9", check(u=bad_u), False)
    expect("resist libsvm with one label flipped", check(libsvm=flip_label(libsvm, "libsvm", 7)), False)
    expect("resist trace with a row dropped", check(trace=trace[:-1]), False)
    wrong = json.loads(json.dumps(report))
    wrong["measured"]["a_norm"] *= 1.01
    expect("resist report with a wrong a_norm (replay step)", check(report=wrong), False)
    expect("resist report a_norm against the closed form", ref_mod.check_a_norm(wrong, ref), False)


def test_generate():
    cases = (("fourblock", 6, "csv", ()), ("fourblock", 7, "libsvm", ()),
             ("twoblock", 4, "csv", ("--optimum-iters", 20000)))
    for variant, k, fmt, extra in cases:
        path = OUT / f"gen_{variant}_{k}.{fmt}"
        meta = path.with_suffix(path.suffix + ".meta.json")
        rc, _ = cli("generate", "--k", k, "--variant", variant, "--format", fmt,
                    "--sigma", SIGMA, "--zeta", ZETA, "--out", path, *extra)
        ref = ref_mod.Reference(k, SIGMA, ZETA, variant)
        expect(f"generate {variant} {fmt}", (["exit"] if rc else [])
               + ref_mod.check_generate(path, meta, fmt, ref), True)
        expect(f"generate {variant} {fmt} with one label flipped",
               ref_mod.check_generate(flip_label(path, fmt, k + 1), meta, fmt, ref), False)
        shifted = json.loads(meta.read_text())
        shifted["f_star"] *= 1 + 1e-9
        bad_meta = meta.with_name("shifted_" + meta.name)
        bad_meta.write_text(json.dumps(shifted))
        expect(f"generate {variant} {fmt} sidecar with f* shifted by 1e-9 relative",
               ref_mod.check_generate(path, bad_meta, fmt, ref), False)


def test_verify():
    rc, out = cli("verify", "--max-k", 6)
    expect("verify output", ref_mod.check_verify(rc, out), True)
    expect("verify output with one invariant failing",
           ref_mod.check_verify(1, out.replace("ok  ", "FAIL", 1)), False)


def main():
    src = ROOT / "src"
    if not (src / "hardlogit" / "__init__.py").is_file():
        print(f"error: no hardlogit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    for test in (test_a_norm_reference, test_race, test_resist, test_generate, test_verify):
        test()
    shutil.rmtree(OUT, ignore_errors=True)
    failed = results.count(False)
    print(f"{len(results) - failed}/{len(results)} checks behave as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
