"""Tests for the open-source Alibaba trace-format parser."""

import pytest

from repro.trace.alibaba import (
    CONTAINER_META_COLUMNS,
    load_alibaba_trace,
    load_container_meta,
)


def write_meta(tmp_path, rows, header=False):
    path = tmp_path / "container_meta.csv"
    lines = []
    if header:
        lines.append(",".join(CONTAINER_META_COLUMNS))
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def meta_row(cid, machine, app_du, cpu_centi, mem_gb):
    return (cid, machine, 0, app_du, "started", cpu_centi, cpu_centi, mem_gb)


SAMPLE = [
    meta_row("c_1", "m_1", "app_a", 400, 8),
    meta_row("c_2", "m_2", "app_a", 400, 8),
    meta_row("c_3", "m_3", "app_a", 400, 8),
    meta_row("c_4", "m_1", "app_b", 800, 16),
    meta_row("c_5", "m_4", "app_c", 100, 2),
]


class TestLoadContainerMeta:
    def test_groups_by_app_du(self, tmp_path):
        apps = load_container_meta(write_meta(tmp_path, SAMPLE))
        assert [a.name for a in apps] == ["app_a", "app_b", "app_c"]
        assert [a.n_containers for a in apps] == [3, 1, 1]

    def test_centicores_converted(self, tmp_path):
        apps = load_container_meta(write_meta(tmp_path, SAMPLE))
        assert apps[0].cpu == 4.0
        assert apps[1].cpu == 8.0

    def test_header_autodetected(self, tmp_path):
        apps_no = load_container_meta(write_meta(tmp_path, SAMPLE))
        apps_yes = load_container_meta(write_meta(tmp_path, SAMPLE, header=True))
        assert [a.n_containers for a in apps_no] == [
            a.n_containers for a in apps_yes
        ]

    def test_demand_clipping(self, tmp_path):
        rows = [meta_row("c", "m", "big", 12800, 512)]
        apps = load_container_meta(write_meta(tmp_path, rows))
        assert apps[0].cpu == 16.0
        assert apps[0].mem_gb == 32.0

    def test_zero_requests_defaulted(self, tmp_path):
        rows = [meta_row("c", "m", "z", 0, 0)]
        apps = load_container_meta(write_meta(tmp_path, rows))
        assert apps[0].cpu == 1.0
        assert apps[0].mem_gb == 2.0

    def test_mode_demand_for_heterogeneous_rows(self, tmp_path):
        rows = [
            meta_row("c1", "m", "a", 400, 8),
            meta_row("c2", "m", "a", 400, 8),
            meta_row("c3", "m", "a", 800, 16),
        ]
        apps = load_container_meta(write_meta(tmp_path, rows))
        assert apps[0].cpu == 4.0  # the mode, per the IL assumption

    def test_malformed_row_rejected(self, tmp_path):
        rows = [("c", "m", 0, "a", "started", "not-a-number", 0, 8)]
        with pytest.raises(ValueError, match="malformed"):
            load_container_meta(write_meta(tmp_path, rows))

    def test_rows_without_app_du_skipped(self, tmp_path):
        rows = SAMPLE + [("c_9", "m", 0, "", "started", 100, 100, 2)]
        apps = load_container_meta(write_meta(tmp_path, rows))
        assert sum(a.n_containers for a in apps) == 5


class TestLoadAlibabaTrace:
    def test_without_synthesis_no_constraints(self, tmp_path):
        trace = load_alibaba_trace(
            write_meta(tmp_path, SAMPLE), synthesize_constraints=False
        )
        assert trace.n_containers == 5
        assert len(trace.constraints) == 0

    def test_with_synthesis_constraints_appear(self, tmp_path):
        # Enough apps for the ratios to bite.
        rows = []
        for i in range(40):
            for j in range(3):
                rows.append(meta_row(f"c{i}_{j}", "m", f"app_{i:02d}", 200, 4))
        trace = load_alibaba_trace(write_meta(tmp_path, rows))
        assert len(trace.constraints) > 0
        assert trace.n_apps == 40

    def test_synthesis_deterministic(self, tmp_path):
        rows = [
            meta_row(f"c{i}", "m", f"app_{i % 7}", 100, 2) for i in range(30)
        ]
        path = write_meta(tmp_path, rows)
        a = load_alibaba_trace(path, seed=3)
        b = load_alibaba_trace(path, seed=3)
        assert list(a.constraints.conflicting_pairs()) == list(
            b.constraints.conflicting_pairs()
        )

    def test_loaded_trace_schedules(self, tmp_path):
        from repro import AladdinScheduler, Simulator

        rows = []
        for i in range(20):
            for j in range(2):
                rows.append(meta_row(f"c{i}_{j}", "m", f"app_{i:02d}", 400, 8))
        trace = load_alibaba_trace(write_meta(tmp_path, rows))
        sim = Simulator(trace, n_machines=20)
        result = sim.run(AladdinScheduler())
        assert result.metrics.violation_pct <= 5.0
