"""Unit tests for layer workloads and the analytical / noisy cost models."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.nn.layers import AttentionLayer, Conv2dLayer
from repro.perf.layer_cost import AnalyticalCostModel, LayerWorkload, NoisyCostModel


@pytest.fixture()
def conv_layer():
    return Conv2dLayer(
        name="conv",
        width=64,
        in_width=32,
        kernel_size=3,
        stride=1,
        in_spatial=(16, 16),
        out_spatial=(16, 16),
    )


@pytest.fixture()
def conv_workload(conv_layer):
    return LayerWorkload.from_layer(conv_layer)


class TestLayerWorkload:
    def test_from_layer_matches_layer_accounting(self, conv_layer, conv_workload):
        assert conv_workload.kind == "conv2d"
        assert conv_workload.flops == pytest.approx(conv_layer.flops())
        assert conv_workload.output_bytes == conv_layer.output_bytes()
        assert conv_workload.input_bytes == conv_layer.input_bytes()
        assert conv_workload.weight_bytes == pytest.approx(conv_layer.params() * 2)

    def test_partial_slice_has_smaller_workload(self, conv_layer):
        full = LayerWorkload.from_layer(conv_layer)
        half = LayerWorkload.from_layer(conv_layer, in_units=16, out_units=32)
        assert half.flops < full.flops
        assert half.output_bytes < full.output_bytes

    def test_from_layer_of_a_stage_slice(self, tiny_dynamic):
        # Stage 0's slice of the first backbone layer, as the view records it.
        layer = tiny_dynamic.network.layers[0]
        in_units = int(tiny_dynamic.arrays.in_units[0, 0, 0])
        out_units = int(tiny_dynamic.arrays.channels[0, 0, 0])
        workload = LayerWorkload.from_layer(layer, in_units, out_units)
        assert workload.flops == pytest.approx(layer.flops(in_units=in_units, out_units=out_units))
        assert workload.output_bytes == layer.output_bytes(out_units)

    def test_feature_vector_shape_and_one_hot(self, conv_workload):
        features = conv_workload.features()
        assert features.shape == (8,)
        assert features[4] == 1.0  # conv2d one-hot
        assert features[5:].sum() == 0.0

    def test_attention_one_hot(self):
        layer = AttentionLayer(name="a", width=64, in_width=64, tokens=16, num_heads=2)
        features = LayerWorkload.from_layer(layer).features()
        assert features[5] == 1.0

    def test_total_bytes(self, conv_workload):
        assert conv_workload.total_bytes == pytest.approx(
            conv_workload.input_bytes + conv_workload.output_bytes + conv_workload.weight_bytes
        )

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError):
            LayerWorkload(kind="conv2d", flops=-1, input_bytes=0, output_bytes=0, weight_bytes=0)


class TestAnalyticalCostModel:
    def test_latency_positive_and_has_overhead_floor(self, conv_workload, platform):
        model = AnalyticalCostModel()
        gpu = platform.unit("gpu")
        latency = model.latency_ms(conv_workload, gpu, 1.0)
        assert latency > gpu.launch_overhead_ms

    def test_latency_decreases_with_scale(self, conv_workload, platform):
        model = AnalyticalCostModel()
        gpu = platform.unit("gpu")
        assert model.latency_ms(conv_workload, gpu, 1.0) < model.latency_ms(
            conv_workload, gpu, 0.3
        )

    def test_gpu_faster_than_dla(self, conv_workload, platform):
        model = AnalyticalCostModel()
        assert model.latency_ms(conv_workload, platform.unit("gpu"), 1.0) < model.latency_ms(
            conv_workload, platform.unit("dla0"), 1.0
        )

    def test_dla_more_energy_efficient(self, conv_workload, platform):
        model = AnalyticalCostModel()
        assert model.energy_mj(conv_workload, platform.unit("dla0"), 1.0) < model.energy_mj(
            conv_workload, platform.unit("gpu"), 1.0
        )

    def test_energy_equals_latency_times_power(self, conv_workload, platform):
        model = AnalyticalCostModel()
        gpu = platform.unit("gpu")
        for scale in (0.5, 1.0):
            assert model.energy_mj(conv_workload, gpu, scale) == pytest.approx(
                model.latency_ms(conv_workload, gpu, scale) * gpu.power_w(scale)
            )

    def test_bigger_workload_costs_more(self, conv_layer, platform):
        model = AnalyticalCostModel()
        gpu = platform.unit("gpu")
        full = LayerWorkload.from_layer(conv_layer)
        half = LayerWorkload.from_layer(conv_layer, out_units=32)
        assert model.latency_ms(half, gpu, 1.0) <= model.latency_ms(full, gpu, 1.0)

    def test_invalid_scale_rejected(self, conv_workload, platform):
        model = AnalyticalCostModel()
        with pytest.raises(ConfigurationError):
            model.latency_ms(conv_workload, platform.unit("gpu"), 0.0)

    def test_dvfs_energy_tradeoff_exists(self, conv_workload, platform):
        # Lowering the DLA clock should reduce power enough that energy per
        # inference does not explode -- the property DVFS search exploits.
        model = AnalyticalCostModel()
        dla = platform.unit("dla0")
        energy_high = model.energy_mj(conv_workload, dla, 1.0)
        energy_low = model.energy_mj(conv_workload, dla, dla.scale_for_point(0))
        assert energy_low < energy_high * 1.5


class TestNoisyCostModel:
    def test_noise_is_reproducible_per_seed(self, conv_workload, platform):
        gpu = platform.unit("gpu")
        first = NoisyCostModel(noise_std=0.1, seed=7)
        second = NoisyCostModel(noise_std=0.1, seed=7)
        assert first.latency_ms(conv_workload, gpu, 1.0) == pytest.approx(
            second.latency_ms(conv_workload, gpu, 1.0)
        )

    def test_zero_noise_matches_base(self, conv_workload, platform):
        gpu = platform.unit("gpu")
        base = AnalyticalCostModel()
        noisy = NoisyCostModel(noise_std=0.0, seed=0)
        assert noisy.latency_ms(conv_workload, gpu, 1.0) == pytest.approx(
            base.latency_ms(conv_workload, gpu, 1.0)
        )

    def test_noise_stays_close_to_base(self, conv_workload, platform):
        gpu = platform.unit("gpu")
        base = AnalyticalCostModel().latency_ms(conv_workload, gpu, 1.0)
        noisy = NoisyCostModel(noise_std=0.05, seed=3)
        samples = [noisy.latency_ms(conv_workload, gpu, 1.0) for _ in range(50)]
        assert all(0.7 * base < value < 1.4 * base for value in samples)

    def test_invalid_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            NoisyCostModel(noise_std=-0.1)

    @pytest.mark.parametrize("noise_std", [float("nan"), float("inf")])
    def test_a_nan_or_infinite_noise_is_rejected(self, noise_std):
        with pytest.raises(ConfigurationError, match="noise_std"):
            NoisyCostModel(noise_std=noise_std)
