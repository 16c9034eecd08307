"""Tests for the device CPU accounting model."""

import pytest

from repro.device.cpu import CpuModel
from repro.simulation.random import SeededRandom


@pytest.fixture
def cpu() -> CpuModel:
    return CpuModel(cores=8, random=SeededRandom(3, "cpu"))


class TestDemandManagement:
    def test_set_and_read_demand(self, cpu):
        cpu.set_demand("browser", 20.0)
        assert cpu.demand("browser") == 20.0
        assert "browser" in cpu.process_names

    def test_zero_demand_removes_process(self, cpu):
        cpu.set_demand("browser", 20.0)
        cpu.set_demand("browser", 0.0)
        assert cpu.demand("browser") == 0.0
        assert cpu.process_names == []

    def test_negative_demand_rejected(self, cpu):
        with pytest.raises(ValueError):
            cpu.set_demand("browser", -1.0)

    def test_total_demand_includes_baseline(self, cpu):
        cpu.set_demand("a", 10.0)
        cpu.set_demand("b", 5.0)
        assert cpu.total_demand() == pytest.approx(cpu.baseline_percent + 15.0)

    def test_clear_demand(self, cpu):
        cpu.set_demand("a", 10.0)
        cpu.clear_demand("a")
        assert cpu.demand("a") == 0.0

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            CpuModel(cores=0, random=SeededRandom(3, "cpu"))


class TestSampling:
    def test_sample_records_per_process(self, cpu):
        cpu.set_demand("browser", 20.0)
        sample = cpu.sample(timestamp=1.0)
        assert sample.timestamp == 1.0
        assert "browser" in sample.per_process_percent
        assert sample.total_percent > 0

    def test_samples_accumulate_in_order(self, cpu):
        for t in range(5):
            cpu.sample(float(t))
        assert len(cpu.samples) == 5
        assert [s.timestamp for s in cpu.samples] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert len(cpu.utilisation_series()) == 5

    def test_series_from_an_index_is_the_tail_of_the_history(self, cpu):
        for t in range(6):
            cpu.sample(float(t))
        assert cpu.sample_count == 6
        full = cpu.utilisation_series()
        assert cpu.utilisation_series(4) == full[4:]
        assert cpu.utilisation_series(6) == []

    def test_sample_median_tracks_demand(self, cpu):
        cpu.set_demand("browser", 30.0)
        values = [cpu.sample(float(t)).total_percent for t in range(300)]
        values.sort()
        median = values[len(values) // 2]
        assert 25.0 < median < 40.0

    def test_sample_never_exceeds_100(self, cpu):
        cpu.set_demand("heavy", 500.0)
        sample = cpu.sample(0.0)
        assert sample.total_percent == 100.0

    def test_reset_samples(self, cpu):
        cpu.sample(0.0)
        cpu.reset_samples()
        assert cpu.samples == []
        assert cpu.last_sample() is None

    def test_last_sample(self, cpu):
        cpu.sample(0.0)
        second = cpu.sample(1.0)
        assert cpu.last_sample() == second
