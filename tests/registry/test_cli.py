"""The ``python -m repro.registry`` maintenance CLI."""

import json

import pytest

from repro.registry.__main__ import main
from repro.registry.pareto import ParetoPoint
from repro.registry.store import VariantRegistry


def P(variant, quality=0.9, speedup=2.0, **kw):
    kw.setdefault("knobs", {"rate": 2})
    return ParetoPoint(variant=variant, quality=quality, speedup=speedup, **kw)


@pytest.fixture()
def store(tmp_path):
    root = tmp_path / "reg"
    registry = VariantRegistry(root)
    registry.record_many(
        "app:k/gpu/s1",
        [P("fast", 0.92, 4.0), P("safe", 0.99, 1.5), P("dom", 0.5, 1.0)],
    )
    return root


class TestInspect:
    def test_inspect_prints_keys_and_fronts(self, store, capsys):
        assert main(["inspect", str(store)]) == 0
        out = capsys.readouterr().out
        assert "app:k/gpu/s1" in out
        assert "fast" in out and "safe" in out
        assert "3 points" in out

    def test_bare_directory_means_inspect(self, store, capsys):
        assert main([str(store)]) == 0
        assert "app:k/gpu/s1" in capsys.readouterr().out

    def test_inspect_json_is_machine_readable(self, store, capsys):
        assert main(["inspect", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        detail = payload["keys_detail"]["app:k/gpu/s1"]
        assert detail["points"] == 3
        assert {p["variant"] for p in detail["front"]} == {"fast", "safe"}

    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 2
        assert "inspect" in capsys.readouterr().out


class TestMergeAndGc:
    def test_merge_absorbs_sources(self, tmp_path, capsys):
        a, b, dest = tmp_path / "a", tmp_path / "b", tmp_path / "dest"
        VariantRegistry(a).record("k1", P("x"))
        VariantRegistry(b).record("k2", P("y"))
        assert main(["merge", str(dest), str(a), str(b)]) == 0
        assert set(VariantRegistry(dest).keys()) == {"k1", "k2"}
        assert "merged 2 points" in capsys.readouterr().out

    def test_gc_prunes_dominated_points(self, store, capsys):
        assert main(["gc", str(store)]) == 0
        survivors = {
            p.variant for p in VariantRegistry(store).points("app:k/gpu/s1")
        }
        assert survivors == {"fast", "safe"}
        assert "3 -> 2 points" in capsys.readouterr().out

    def test_gc_has_no_keep_all(self, store):
        with pytest.raises(SystemExit) as exc:
            main(["gc", str(store), "--keep-all"])
        assert exc.value.code == 2
        assert len(VariantRegistry(store).points("app:k/gpu/s1")) == 3


class TestIngest:
    def test_ingest_folds_stamped_samples(self, store, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        lines = [
            json.dumps(
                {"kind": "quality_sample", "registry_key": "app:k/gpu/s1",
                 "variant": "fast", "quality": 0.70}
            ),
            "not json at all",
            json.dumps({"kind": "quality_sample", "variant": "fast",
                        "quality": 0.1}),
        ]
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["ingest", str(store), str(trace)]) == 0
        assert "ingested 1 quality" in capsys.readouterr().out
        fast = next(
            p for p in VariantRegistry(store).points("app:k/gpu/s1")
            if p.variant == "fast"
        )
        assert fast.samples == 2
        assert fast.quality == pytest.approx((0.92 + 0.70) / 2)


#: One writer process: append ``rounds`` batches under its own name, then
#: print how many points it wrote.  Run via ``python -c`` so the test
#: exercises real cross-process locking, not threads.
WRITER = """
import sys
from repro.registry.pareto import ParetoPoint
from repro.registry.store import VariantRegistry

root, worker, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
registry = VariantRegistry(root)
written = 0
for i in range(rounds):
    points = [
        ParetoPoint(
            variant=f"w{worker}-v{j}",
            quality=0.90 + 0.001 * j,
            speedup=1.0 + 0.1 * j + 0.01 * worker,
            knobs={"rate": j},
        )
        for j in range(4)
    ]
    registry.record_many(f"smoke/key-{i % 3}", points)
    written += len(points)
print(written)
"""


class TestSmoke:
    def test_smoke_two_processes_share_one_store(self, tmp_path):
        import os
        import subprocess
        import sys

        import repro

        root = tmp_path / "smoke"
        procs, rounds = 2, 2
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", WRITER, str(root), str(i), str(rounds)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
            )
            for i in range(procs)
        ]
        for writer in writers:
            stdout, stderr = writer.communicate(timeout=120)
            assert writer.returncode == 0, stderr
            assert int(stdout) == rounds * 4
        registry = VariantRegistry(root)
        stats = registry.stats()
        assert stats["unreadable"] == 0
        assert stats["keys"] == min(3, rounds)
        assert all(len(registry.points(k)) == procs * 4 for k in registry.keys())
