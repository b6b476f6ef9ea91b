"""The three workloads: inputs made from the seed, one timed pass, checks.

Each workload has three parts.  `setup` builds the inputs from the seed
(and, for the warm workload, the cache the pass starts from) under a
directory of its own; it runs in a separate process and is timed there.
`run_pass` is the timed work.  `check` reads the pass's outputs afterwards
and counts trials and failures.

Sizes are chosen so that a pass takes 1-7 s on a 2-CPU machine, so that a
30-second run holds several passes; README.md gives the reasons for each.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ALL_FEATURES = ("mfcc", "imfcc", "scmc", "cqcc", "mhec", "rps", "mgd",
                "cosphase")


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


@dataclass
class PassOutcome:
    failed: int          # trials whose score is missing or non-finite
    problems: list       # failed checks; any one fails the whole pass
    digests: dict        # output file -> sha256, compared across passes


# -- grid workloads driven through harness.run_experiment ---------------------

@dataclass(frozen=True)
class GridWorkload:
    """A harness grid over a toy corpus.

    mode "cold": every pass starts from an empty work dir.
    mode "warm": setup runs the grid once; every pass re-runs it on that
    cache, so nothing is extracted or trained.
    """

    name: str
    why: str
    corpus: dict
    config: dict
    mode: str

    def experiment_config(self):
        from spoofbench.config import ExperimentConfig, parse_grid_cell

        kwargs = dict(self.config)
        kwargs["grid"] = tuple(parse_grid_cell(c) for c in kwargs["grid"])
        return ExperimentConfig(**kwargs)

    @property
    def trials_per_pass(self) -> int:
        cfg = self.config
        scored = self.corpus["n_dev"] + self.corpus["n_eval"]
        systems = len(cfg["features"]) + len(cfg.get("fusion", ()))
        return len(cfg["grid"]) * len(cfg["backends"]) * systems * scored

    def _run(self, config, corpus_dir: Path, work_dir: Path):
        from spoofbench import harness
        from spoofbench.manifest import read_manifest

        manifest = read_manifest(corpus_dir / "manifest.tsv")
        return harness.run_experiment(config, manifest, work_dir,
                                      wav_root=corpus_dir)

    def setup(self, dest: Path, seed: int) -> dict:
        from spoofbench.toycorpus import make_toy_corpus

        manifest = make_toy_corpus(dest / "corpus", seed=seed, **self.corpus)
        # 16-bit mono: the audio seconds follow from the wav data sizes
        samples = sum(((dest / "corpus" / r.wav_path).stat().st_size - 44)
                      // 2 for r in manifest)
        state = {"corpus": str(dest / "corpus"), "work": None,
                 "inputs": {"utterances": len(manifest),
                            "audio_s": samples / 16000.0}}
        if self.mode == "warm":
            self._run(self.experiment_config(), dest / "corpus",
                      dest / "work")
            state["work"] = str(dest / "work")
            state["digests"] = output_digests(dest / "work")
        return state

    def prepare(self, state: dict, pass_dir: Path) -> Path:
        """The work dir of the next pass, made ready outside the timing."""
        if self.mode == "warm":
            return Path(state["work"])
        return pass_dir / "work"

    def run_pass(self, state: dict, work: Path):
        self._run(self.experiment_config(), Path(state["corpus"]), work)

    def check(self, state: dict, work: Path) -> PassOutcome:
        expected = self.trials_per_pass
        rows, bad, problems = checks.count_score_rows(
            sorted((work / "scores").rglob("*.tsv")))
        if rows != expected:
            problems.append(f"expected {expected} trials, found {rows}")
        problems += checks.check_eer_table(work / "summary.tsv")
        if (work / "per_attack.tsv").is_file():
            problems += checks.check_eer_table(work / "per_attack.tsv")
        failed = bad + max(expected - rows, 0)
        return PassOutcome(failed, problems, output_digests(work))

    def reference_digests(self, state: dict):
        """Digests every pass must reproduce (the cold build, when warm)."""
        return state.get("digests")


def output_digests(work: Path) -> dict:
    files = sorted((work / "scores").rglob("*.tsv"))
    files += [p for p in (work / "summary.tsv", work / "per_attack.tsv")
              if p.is_file()]
    return {str(p.relative_to(work)): checks.digest(p) for p in files}


# -- the score-file workload driven through cli.main ------------------------

@dataclass(frozen=True)
class ScoreFileWorkload:
    """Logistic fusion and per-attack evaluation of generated score files."""

    name: str
    why: str
    n_systems: int
    n_trials: int
    n_attacks: int
    target_share: float
    score_step: float

    @property
    def trials_per_pass(self) -> int:
        return self.n_trials

    def _write_subset(self, dest: Path, subset: str, rng):
        n = self.n_trials
        is_target = rng.random(n) < self.target_share
        attack = rng.integers(0, self.n_attacks, n)
        # attacks range from easy to hard; systems share a nuisance term so
        # that fusion has correlated inputs to weigh
        hardness = np.linspace(0.3, 1.2, self.n_attacks)[attack]
        shared = rng.standard_normal(n)
        labels = np.where(is_target, "human", "spoof")
        attacks = np.where(is_target, "-",
                           np.char.add("A", np.char.zfill(
                               (attack + 1).astype(str), 2)))
        ids = [f"{subset}-{i:06d}" for i in range(n)]
        paths, tied = [], []
        for k in range(self.n_systems):
            separation = 1.0 + 0.5 * k
            mean = np.where(is_target, separation,
                            -separation * (1.3 - hardness))
            raw = mean + 0.6 * shared + 0.9 * rng.standard_normal(n)
            # coarse rounding puts many trials on tied scores
            scores = np.round(raw / self.score_step) * self.score_step
            tied.append(1.0 - np.unique(scores).size / n)
            path = dest / f"sys{k}.{subset}.tsv"
            body = "".join(f"{u}\t{float(s)!r}\t{lab}\t{a}\tclean\n"
                           for u, s, lab, a in zip(ids, scores, labels,
                                                   attacks))
            path.write_text(checks.SCORE_HEADER + "\n" + body,
                            encoding="utf-8")
            paths.append(str(path))
        return paths, tied

    def setup(self, dest: Path, seed: int) -> dict:
        dest.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 4242])
        dev, _ = self._write_subset(dest, "dev", rng)
        evals, tied = self._write_subset(dest, "eval", rng)
        return {"dev": dev, "eval": evals, "seed": seed,
                "inputs": {"trials": self.n_trials,
                           "tied_share_per_system": tied}}

    def prepare(self, state: dict, pass_dir: Path) -> Path:
        pass_dir.mkdir(parents=True, exist_ok=True)
        return pass_dir

    def run_pass(self, state: dict, work: Path):
        from spoofbench import cli

        fuse = ["fuse", "--method", "logistic", "--scores", *state["eval"],
                "--dev", *state["dev"], "--out", str(work / "fused.tsv"),
                "--model-out", str(work / "fusion.txt")]
        evaluate = ["eval", "--scores", str(work / "fused.tsv"),
                    "--per-attack", "--out", str(work / "eer.txt")]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(fuse), cli.main(evaluate)]
        (work / "exit_codes.json").write_text(json.dumps(codes))

    def check(self, state: dict, work: Path) -> PassOutcome:
        expected = self.trials_per_pass
        codes = json.loads((work / "exit_codes.json").read_text())
        if codes != [0, 0]:
            return PassOutcome(expected, [f"cli exit codes {codes}"], {})
        fused, report = work / "fused.tsv", work / "eer.txt"
        rows, bad, problems = checks.count_score_rows([fused])
        if rows != expected:
            problems.append(f"expected {expected} trials, found {rows}")
        reported = checks.read_eval_report(report)
        problems += checks.eer_range_problems(reported)
        problems += checks.compare_eers(
            reported, self._reference(state, fused),
            checks.EER_TOLERANCE_PP, "recomputed")
        recorded = self.recorded_eers().get(str(state["seed"]))
        if recorded is not None:
            problems += checks.compare_eers(
                reported, recorded, checks.RECORDED_TOLERANCE_PP, "recorded")
        failed = bad + max(expected - rows, 0)
        return PassOutcome(failed, problems,
                           {"fused.tsv": checks.digest(fused),
                            "eer.txt": checks.digest(report)})

    def _reference(self, state: dict, fused: Path) -> dict:
        # the recomputation is slow in Python; fused files repeat byte for
        # byte across passes, so one recomputation per distinct file is kept
        memo = state.setdefault("_reference", {})
        key = checks.digest(fused)
        if key not in memo:
            memo[key] = checks.reference_eers(fused)
        return memo[key]

    @staticmethod
    def recorded_eers() -> dict:
        return json.loads((HERE / "recorded_eers.json").read_text())

    def reference_digests(self, state: dict):
        return None


WORKLOADS = {w.name: w for w in (
    GridWorkload(
        name="grid-cold",
        why="the paper grid from an empty work dir: extraction and "
            "GMM/UBM/TV/PLDA training, then noise, mixing and Wiener "
            "enhancement",
        corpus={"n_train": 8, "n_dev": 0, "n_eval": 2},
        config={"features": ALL_FEATURES,
                "backends": ("gmm", "ivector-cosine", "ivector-plda"),
                "grid": ("clean", "white:0", "babble:10"),
                "enhancement": "wiener", "fusion": ("average",),
                "gmm_components": 8, "ubm_components": 8, "tv_rank": 4},
        mode="cold"),
    GridWorkload(
        name="score-warm",
        why="re-running a grid on a cache built in setup: cache reads, "
            "i-vector embedding, LLR and PLDA scoring, fusion",
        corpus={"n_train": 16, "n_dev": 24, "n_eval": 24},
        config={"features": ("mfcc", "cosphase"),
                "backends": ("gmm", "ivector-cosine", "ivector-plda"),
                "grid": ("clean", "babble:10"),
                "fusion": ("average", "logistic"), "tv_rank": 12},
        mode="warm"),
    ScoreFileWorkload(
        name="eval-large",
        why="score files only: logistic fusion and per-attack ROCCH EER "
            "of 4 systems x 20k tied trials through the CLI",
        n_systems=4, n_trials=20_000, n_attacks=10, target_share=0.1,
        score_step=0.25),
)}
