"""Print one ``name sha256`` line per artifact the README promises byte-identical.

The artifacts are the stdout and ``report.json`` of all six presets at
their pinned seeds, the ``dump-cascade`` stdout at the ``CASCADE_A2``
values (default truncation), and ``report.json``, ``trajectory.csv`` and
``plot_data.csv`` of ``run`` configs for all four models: the
``bench/workloads.py`` ``cli-run`` configs at seeds 3 and 7, each at
``--jobs`` 1 and 2, and the ``EXTRA_RUNS`` below, which reach the path
groups those skip, the ``BLOW_UP_RUN`` and the ``UNDERFLOW_RUN``, each at
``--jobs`` 1 and 3.
A run that blows up writes no ``plot_data.csv``; an artifact a run does
not write is printed as ``absent``.

Run it at two commits and ``diff`` the output: no line may differ.

    python tools/artifact_digests.py [CHECKOUT] > digests.txt

``CHECKOUT`` is the tree whose ``src/`` and ``bench/`` are imported; it
defaults to the one holding this script, so an older commit without
this tool can be checked from a ``git archive`` of it.  ``bench/`` is
only read.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

SEEDS = (3, 7)
# every k* from 2 to 6, and a² = 2.5, whose coefficients are not integers
CASCADE_A2 = ("0", "2", "2.5", "5", "7", "14", "33")
JOBS = (1, 2)
# name: (binding, [run] keys, [estimators] keys) of configs that reach
# mixing's second start, the lyapunov probes, x paths run on past the
# bound span, record_every, and density with binding off
EXTRA_RUNS = {
    "bound-mixing-lyapunov": ("on", "record_every = 20\n",
                              "lyapunov = on\nmixing = on\nmixing_times = 1 4\n"
                              "mixing_alt_x0 = 0.2 0.1\naxk = on\naxk_horizon = 5\n"),
    "unbound-density-axk": ("off", "", "density = on\naxk = on\n"),
    "unbound-record-every": ("off", "record_every = 50\n", ""),
}
EXTRA_JOBS = (1, 3)
# streams 1 and 5 of the ensemble blow up within the unit, stream 0 does
# not: its trajectory is replayed alone and written, then the blow-up reported
BLOW_UP_RUN = ("[model]\nid = chain\na_squared = 5.0\n\n"
               "[run]\ndt = 0.001\nunits = 1\nensemble = 8\nseed = 25\nbinding = off\nx0 = 44.7\n")
# one of the two density paths overflows and the other's weight falls
# to about 1e-260: one path is kept, so the density's standard error is
# NaN and its inverse square past the float range; both are written as null
UNDERFLOW_RUN = ("[model]\nid = toy2d\n\n"
                 "[run]\ndt = 0.001\nunits = 1\nensemble = 2\nseed = 2\nx0 = 1.0 0.5\n"
                 "y0_offset = -2.5 -2.0\n\n[estimators]\ndensity = on\n")


def _digest(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _quiet_main(cli, argv) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli.main(argv)
    return stdout.getvalue()


def digests(checkout: Path):
    """Yield ``(name, sha256)`` for every artifact, importing from ``checkout``."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from asymcouple import cli
    from asymcouple.presets import PRESETS
    from workloads import ARTIFACTS, CLI_MODEL_SECTIONS, CLI_STARTS, MODEL_IDS, cli_config_text

    if checkout / "src" not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: asymcouple imported from {cli.__file__}, not {checkout / 'src'}")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for preset_id in sorted(PRESETS):
            stdout = _quiet_main(cli, ["reproduce", preset_id, "--out", str(tmp)])
            yield f"preset/{preset_id}/stdout", _digest(stdout)
            yield f"preset/{preset_id}/report.json", _digest((tmp / preset_id / "report.json").read_bytes())
        for a_squared in CASCADE_A2:
            yield f"dump-cascade/{a_squared}/stdout", _digest(_quiet_main(cli, ["dump-cascade", a_squared]))
        runs = [(f"{model_id}/seed={seed}", cli_config_text(model_id, seed), JOBS)
                for model_id in MODEL_IDS for seed in SEEDS]
        for model_id in MODEL_IDS:
            x0, offset = CLI_STARTS[model_id]
            for name, (binding, run_keys, estimators) in EXTRA_RUNS.items():
                text = (f"[model]\n{CLI_MODEL_SECTIONS[model_id]}\n"
                        "[run]\ndt = 0.002\nunits = 2\nensemble = 7\nseed = 5\n"
                        f"binding = {binding}\nx0 = {x0}\ny0_offset = {offset}\n{run_keys}\n"
                        f"[estimators]\ncontraction = on\n{estimators}")
                runs.append((f"{model_id}/{name}", text, EXTRA_JOBS))
        runs.append(("chain/blow-up", BLOW_UP_RUN, EXTRA_JOBS))
        runs.append(("toy2d/density-underflow", UNDERFLOW_RUN, EXTRA_JOBS))
        for i, (label, text, jobs_values) in enumerate(runs):
            config = tmp / f"run{i}.cfg"
            config.write_text(text)
            for jobs in jobs_values:
                out = tmp / f"run{i}-jobs{jobs}"
                _quiet_main(cli, ["run", "--config", str(config), "--jobs", str(jobs), "--out", str(out)])
                for artifact in ARTIFACTS:
                    path = out / artifact
                    yield (f"cli/{label}/jobs={jobs}/{artifact}",
                           _digest(path.read_bytes()) if path.is_file() else "absent")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="tree whose src/ and bench/ to import (default: this one)")
    args = parser.parse_args(argv)
    for name, digest in digests(args.checkout.resolve()):
        print(f"{name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
