"""Byte-identity protocol: the SHA-256 of every canonical output of a fixed
command set, to compare two versions of the package.

    PYTHONPATH=src python tests/output_hashes.py > listing.txt
    PYTHONPATH=src python tests/output_hashes.py --against listing.txt
    PYTHONPATH=src python tests/output_hashes.py --values > values.txt

Each command runs in-process through ``jointtri.cli.run`` in a temporary
directory.  One line is printed per command, ``<sha256> <exit> <command>``
(the hash of the output file, or ``-`` when none was written), then the
SHA-256 of all those lines.  Two versions produce byte-identical canonical
outputs with unchanged exit codes exactly when the last lines agree.
With ``--values`` each line hashes the output's values instead of its
bytes: the file read by ``jointtri.io.load``, with each float replaced by
its binary64 bit pattern (``value_bits``).  Two versions that write the
same keys, types and float bits in another number notation give equal
``--values`` listings.
With ``--against FILE`` (a listing saved from another version) only the
lines that differ are printed, each as ``- <saved line>`` and ``+ <new
line>`` (a command in only one listing has only its own line), then the
final lines if they differ, and the exit status is 1 on any difference.
With ``--keep DIR`` the commands run in DIR (made if missing), so every
output stays there, and the printed listing is also saved as
DIR/listing.txt.  ``--compare DIR_A DIR_B`` runs nothing: it reads two
such directories and prints one line per command whose exit code or output
differs, naming the non-float differences (presence, keys, lengths, types,
values) and the largest ``|a-b| / max(|a|, |b|)`` over the output's
floats with its path, then a summary line with the count per subcommand.
The exit status is 1 on any non-float difference, and with ``--rtol X``
also when any float differs by more than X relative, so one command gates
a declared output change.

    PYTHONPATH=src python tests/output_hashes.py --keep before/ > /dev/null
    PYTHONPATH=src python tests/output_hashes.py --compare before/ after/ --rtol 1e-13

The set:
- ``generate`` plus ``verify --trials 4`` on the verify_d4 benchmark pool
  (d=4, N=4, kappa=3, sigma=1e-3, seeds s*1000+k for s < 6, k < 64);
- ``generate``, ``verify --trials 100`` and ``bounds`` on the criterion-6
  model (d=4, N=4, kappa=3, seed 400);
- ``generate``, ``triangularize --sigma 1e-3``, ``bounds``, ``bounds
  --frame`` (the triangularize output's frame, extracted to its own file), ``sweep --trials 2`` and ``verify
  --trials 3`` on d in {3, 4, 5}, N=3, kappa=2, seeds 0-5;
- the timed command of each benchmark workload on its first input (seed 0);
- ``generate``, ``triangularize --sigma 1e-3`` and ``bounds`` on d in
  {20, 24}, N=8, kappa=3, seed 0 (operators of L = 190 and 276 rows, on
  the LU + Lanczos path of bounds.inverse_spectral_norm);
- ``sweep --trials 3`` on the criterion-6 model and on the d in {3, 4, 5}
  models above;
- ``generate --kind tensor`` plus ``tensor`` on d in {2, 3, 4, 5, 6, 8, 10}
  (N = d, kappa=2, sigma=1e-4, seeds 7000-7011), and ``tensor --theta
  random`` on the d in {4, 8} inputs among them;
- ``tensor --d k`` for k in {4, 5, 7} on a rank-4 tensor of dimension N = 6
  (written by ``write_inputs``; each exits 2 with no output);
- ``generate --kind model`` and ``--kind tensor`` with ``--d 0 --N 0``
  (usage errors);
- ``generate --kind tensor`` plus ``tensor`` and ``tensor --theta random``
  on d in {12, 16} (N = d, kappa=2, sigma=1e-4, seeds 7000-7005);
- ``generate --kind tensor`` plus ``tensor`` at sigma=1e-1 on d=8 (seeds
  7000-7011) and on d in {12, 16} (seeds 7000-7005), where the column
  matching of most runs falls back to the bipartite-matching search of
  tensor.match_columns;
- ``generate`` plus ``verify --trials 3`` on d in {8, 16}, N=8, kappa=3,
  sigma=1e-3, seeds 0-2, and ``sweep --trials 2`` on the d=8 models among
  them (the LAPACK real Schur path of linalg.orthogonal_log on 8 x 8 and
  16 x 16 rotations);
- ``generate`` plus ``triangularize --sigma 1e-3`` on d=32, N=8, kappa=3,
  seeds 0-7 (the truncated-CG steps of triangularize.descend_batch), and
  ``bounds`` and ``verify --sigma 1e-3 --trials 3`` on the seed-0 model
  among them (L = 496 certificates: bounds.a_posteriori_bound,
  bounds.init_noise_threshold and, in verify, the a priori bound's
  Lanczos run on J^T J);
- ``generate`` of d=12, N=64, kappa=3 models, seeds 0-3 (the canonical
  writer on large payloads).
"""

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

if __name__ == "__main__":  # the tests that import value_bits keep their environment
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from jointtri import cli, io  # noqa: E402
from jointtri import tensor as tn  # noqa: E402


def _model(d, n, kappa, seed, sigma="1e-3"):
    return ["generate", "--kind", "model", "--d", str(d), "--N", str(n),
            "--kappa", str(kappa), "--sigma", sigma, "--seed", str(seed)]


def write_inputs(root):
    """The input that no command generates: a rank-4 tensor with N = 6."""
    z = np.random.default_rng(6).standard_normal((6, 4)) + 1.0
    io.dump_canonical(io.tensor_to_dict(tn.tensor_from_components(z)), str(root / "r4n6"))


def commands():
    """(argv, output name) pairs in protocol order; "@name" in an argv is
    the path of that file in the temporary directory."""
    for s in range(6):
        for k in range(64):
            name = f"v{s}-{k}"
            yield _model(4, 4, 3, s * 1000 + k) + ["--output", "@" + name], name
            yield ["verify", "--sigma", "1e-3", "--trials", "4", "--input", "@" + name,
                   "--output", f"@{name}.verify"], f"{name}.verify"
    yield _model(4, 4, 3, 400) + ["--output", "@c6"], "c6"
    yield ["verify", "--trials", "100", "--input", "@c6", "--output", "@c6.verify"], "c6.verify"
    yield ["bounds", "--input", "@c6", "--output", "@c6.bounds"], "c6.bounds"
    small = [f"m{d}-{seed}" for d in (3, 4, 5) for seed in range(6)]
    for name in small:
        d, seed = (int(x) for x in name[1:].split("-"))
        yield _model(d, 3, 2, seed) + ["--output", "@" + name], name
        steps = (
            ("tri", ["triangularize", "--sigma", "1e-3"]),
            ("bounds", ["bounds"]),
            ("frame", ["bounds", "--frame", f"@{name}.tri.frame"]),
            ("sweep", ["sweep", "--trials", "2"]),
            ("verify", ["verify", "--trials", "3"]),
        )
        for suffix, argv in steps:
            out = f"{name}.{suffix}"
            yield argv + ["--input", "@" + name, "--output", "@" + out], out
    pools = (
        ("d32", _model(32, 8, 3, 0), ["triangularize", "--sigma", "1e-3"]),
        ("n64", _model(12, 64, 3, 0), ["triangularize", "--sigma", "1e-3"]),
        ("t8", ["generate", "--kind", "tensor", "--d", "8", "--N", "8", "--kappa", "2",
                "--sigma", "1e-4", "--seed", "0"], ["tensor", "--d", "8"]),
    )
    for name, generate, timed in pools:
        yield generate + ["--output", "@" + name], name
        yield timed + ["--input", "@" + name, "--output", f"@{name}.out"], f"{name}.out"
    for d in (20, 24):
        name = f"L{d}"
        yield _model(d, 8, 3, 0) + ["--output", "@" + name], name
        for suffix, argv in (("tri", ["triangularize", "--sigma", "1e-3"]), ("bounds", ["bounds"])):
            out = f"{name}.{suffix}"
            yield argv + ["--input", "@" + name, "--output", "@" + out], out
    for name in ["c6"] + small:
        out = f"{name}.sweep3"
        yield ["sweep", "--trials", "3", "--input", "@" + name,
               "--output", "@" + out], out
    for d in (2, 3, 4, 5, 6, 8, 10):
        for seed in range(7000, 7012):
            name = f"t{d}-{seed}"
            yield ["generate", "--kind", "tensor", "--d", str(d), "--N", str(d), "--kappa", "2",
                   "--sigma", "1e-4", "--seed", str(seed), "--output", "@" + name], name
            thetas = ("ones", "random") if d in (4, 8) else ("ones",)
            for theta in thetas:
                out = f"{name}.{theta}"
                yield ["tensor", "--d", str(d), "--theta", theta, "--input", "@" + name,
                       "--output", "@" + out], out
    for k in (4, 5, 7):
        out = f"r4n6.d{k}"
        yield ["tensor", "--d", str(k), "--input", "@r4n6", "--output", "@" + out], out
    for kind in ("model", "tensor"):
        out = f"zero-{kind}"
        yield ["generate", "--kind", kind, "--d", "0", "--N", "0", "--output", "@" + out], out
    large = [(d, "1e-4", seed, ("ones", "random")) for d in (12, 16) for seed in range(7000, 7006)]
    noisy = [(8, "1e-1", seed, ("ones",)) for seed in range(7000, 7012)]
    noisy += [(d, "1e-1", seed, ("ones",)) for d in (12, 16) for seed in range(7000, 7006)]
    for d, sigma, seed, thetas in large + noisy:
        name = f"t{d}-{sigma}-{seed}"
        yield ["generate", "--kind", "tensor", "--d", str(d), "--N", str(d), "--kappa", "2",
               "--sigma", sigma, "--seed", str(seed), "--output", "@" + name], name
        for theta in thetas:
            out = f"{name}.{theta}"
            yield ["tensor", "--d", str(d), "--theta", theta, "--input", "@" + name,
                   "--output", "@" + out], out
    for d in (8, 16):
        for seed in range(3):
            name = f"r{d}-{seed}"
            yield _model(d, 8, 3, seed) + ["--output", "@" + name], name
            steps = [("verify", ["verify", "--trials", "3"])]
            if d == 8:
                steps.append(("sweep", ["sweep", "--trials", "2"]))
            for suffix, argv in steps:
                out = f"{name}.{suffix}"
                yield argv + ["--input", "@" + name, "--output", "@" + out], out
    for seed in range(8):
        name = f"c32-{seed}"
        yield _model(32, 8, 3, seed) + ["--output", "@" + name], name
        steps = [("tri", ["triangularize", "--sigma", "1e-3"])]
        if seed == 0:
            steps.append(("bounds", ["bounds"]))
            steps.append(("verify", ["verify", "--sigma", "1e-3", "--trials", "3"]))
        for suffix, argv in steps:
            out = f"{name}.{suffix}"
            yield argv + ["--input", "@" + name, "--output", "@" + out], out
    for seed in range(4):
        name = f"w64-{seed}"
        yield _model(12, 64, 3, seed) + ["--output", "@" + name], name


def value_bits(value):
    """value with each float replaced by its binary64 bit pattern and each
    other scalar tagged with its type; numpy values read as their tolist()
    and tuples as lists."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, float):
        return "float", int(np.float64(value).view(np.int64))
    if isinstance(value, dict):
        return {key: value_bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [value_bits(v) for v in value]
    return type(value).__name__, value


def byte_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def value_digest(path):
    bits = json.dumps(value_bits(io.load(str(path))), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(bits.encode()).hexdigest()


def listing(echo, digest=byte_digest, keep=None):
    """The protocol's lines, the final hash last; each is passed to echo as
    it is made.  digest(path) hashes each output file.  With keep (a
    directory) the commands run there and the lines are saved as
    keep/listing.txt."""
    lines = []
    if keep is not None:
        Path(keep).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() if keep is None else nullcontext(keep) as workdir:
        root = Path(workdir)
        write_inputs(root)
        for argv, output in commands():
            target = root / output
            code = cli.run([str(root / a[1:]) if a[:1] == "@" else a for a in argv])
            hashed = digest(target) if target.exists() else "-"
            if argv[0] == "triangularize" and target.exists():
                frame = io.load(str(target))["frame"]
                io.dump_canonical(frame, str(root / f"{output}.frame"))
            lines.append(f"{hashed} {code} {' '.join(argv)}")
            echo(lines[-1])
    lines.append(hashlib.sha256("\n".join(lines).encode()).hexdigest())
    echo(lines[-1])
    if keep is not None:
        (Path(keep) / "listing.txt").write_text("\n".join(lines) + "\n")
    return lines


def differences(saved, lines):
    """The lines of two listings that differ, as "- saved" / "+ new" lines,
    matched by command, then the two final hash lines if they differ.
    Lines of neither form (stderr captured with the listing) are ignored."""
    def commands_of(listing):
        return {parts[2]: line for line in listing if len(parts := line.split(" ", 2)) == 3}

    def final_of(listing):
        return [line for line in listing if re.fullmatch("[0-9a-f]{64}", line)][-1:]

    old, new = commands_of(saved), commands_of(lines)
    out = []
    for command in list(old) + [c for c in new if c not in old]:
        if old.get(command) != new.get(command):
            out += [f"{sign} {side[command]}" for sign, side in (("-", old), ("+", new))
                    if command in side]
    if final_of(saved) != final_of(lines):
        out += [f"{sign} {line}" for sign, listing in (("-", saved), ("+", lines))
                for line in final_of(listing)]
    return out


def _walk(a, b, path, kinds, floats):
    """Record in kinds each kind of non-float difference between a and b,
    and append (relative difference, path) to floats for each float pair."""
    if type(a) is float and type(b) is float:
        scale = max(abs(a), abs(b))
        floats.append((abs(a - b) / scale if scale else 0.0, path))
    elif type(a) is not type(b):
        kinds.add("types")
    elif isinstance(a, dict):
        if a.keys() != b.keys():
            kinds.add("keys")
        for key in a.keys() & b.keys():
            _walk(a[key], b[key], f"{path}.{key}" if path else key, kinds, floats)
    elif isinstance(a, list):
        if len(a) != len(b):
            kinds.add("lengths")
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", kinds, floats)
    elif a != b:
        kinds.add("values")


def kept_commands(keep):
    """{output name: (exit code, subcommand)} from keep/listing.txt, in
    protocol order."""
    out = {}
    for line in (Path(keep) / "listing.txt").read_text().splitlines():
        argv = line.split(" ")[1:]
        if "--output" in argv:
            out[argv[argv.index("--output") + 1][1:]] = (argv[0], argv[1])
    return out


def compare(dir_a, dir_b, rtol=float("inf")):
    """(lines, failed): one line per command of either kept directory
    whose exit code or output differs, then a summary line; and whether
    any difference is more than a float's value, or a float differs by
    more than rtol relative."""
    runs = kept_commands(dir_a), kept_commands(dir_b)
    lines, per_command, beyond, worst = [], {}, 0, (0.0, "")
    for name in list(runs[0]) + [n for n in runs[1] if n not in runs[0]]:
        (code_a, command), (code_b, _) = (run.get(name, ("-", None)) for run in runs)
        command = command or runs[1][name][1]
        paths = [Path(d) / name for d in (dir_a, dir_b)]
        kinds, floats = [], []
        if code_a != code_b:
            kinds.append(f"exit {code_a} -> {code_b}")
        if paths[0].exists() != paths[1].exists():
            kinds.append("presence")
        elif paths[0].exists():
            found = set()
            _walk(*(io.load(str(p)) for p in paths), "", found, floats)
            kinds += sorted(found)
        rel, path = max(floats, default=(0.0, ""))
        if not kinds and rel == 0.0:
            continue
        per_command[command] = per_command.get(command, 0) + 1
        beyond += bool(kinds)
        worst = max(worst, (rel, f"{name}:{path}"))
        detail = ", ".join(kinds) if kinds else "floats only"
        lines.append(f"{name} ({command}): {detail}; largest relative difference {rel:.3g}"
                     + (f" at {path}" if path else ""))
    counts = ", ".join(f"{command} {count}" for command, count in per_command.items())
    lines.append(
        f"{len(lines)} of {len(set(runs[0]) | set(runs[1]))} commands differ"
        + (f" ({counts})" if counts else "")
        + f"; {beyond} beyond float values; largest relative difference {worst[0]:.3g}"
        + (f" at {worst[1]}" if worst[1] else ""))
    return lines, beyond > 0 or worst[0] > rtol


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE",
                        help="a saved listing: print only the lines that differ from it")
    parser.add_argument("--values", action="store_true",
                        help="hash each output's float bits and types, not its bytes")
    parser.add_argument("--keep", metavar="DIR",
                        help="run the commands in DIR and keep every output there")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="run nothing; compare the outputs kept in two directories")
    parser.add_argument("--rtol", type=float, default=float("inf"), metavar="X",
                        help="with --compare, also fail when a float differs by more "
                             "than X relative")
    args = parser.parse_args(argv)
    if args.compare:
        lines, failed = compare(*args.compare, args.rtol)
        for line in lines:
            print(line)
        return 1 if failed else 0
    digest = value_digest if args.values else byte_digest
    if args.against is None:
        listing(print, digest, args.keep)
        return 0
    saved = Path(args.against).read_text().splitlines()
    diff = differences(saved, listing(lambda line: None, digest, args.keep))
    for line in diff:
        print(line)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
