"""Unit tests for the symbolic layer descriptors."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.nn.layers import (
    BYTES_PER_ELEMENT,
    AttentionLayer,
    Conv2dLayer,
    FeedForwardLayer,
    LinearLayer,
)


def make_conv(**overrides):
    defaults = dict(
        name="conv",
        width=64,
        in_width=32,
        kernel_size=3,
        stride=1,
        in_spatial=(16, 16),
        out_spatial=(16, 16),
    )
    defaults.update(overrides)
    return Conv2dLayer(**defaults)


class TestConv2dLayer:
    def test_flops_formula(self):
        layer = make_conv()
        expected = 2 * 3 * 3 * 32 * 64 * 16 * 16
        assert layer.flops() == pytest.approx(expected)

    def test_flops_scale_linearly_with_out_units(self):
        layer = make_conv()
        assert layer.flops(out_units=32) == pytest.approx(layer.flops() / 2)

    def test_flops_scale_linearly_with_in_units(self):
        layer = make_conv()
        assert layer.flops(in_units=16) == pytest.approx(layer.flops() / 2)

    def test_grouped_convolution_reduces_flops(self):
        dense = make_conv()
        grouped = make_conv(groups=8)
        assert grouped.flops() == pytest.approx(dense.flops() / 8)

    def test_fused_overhead_multiplies_flops(self):
        plain = make_conv()
        fused = make_conv(fused_overhead=1.10)
        assert fused.flops() == pytest.approx(plain.flops() * 1.10)

    def test_params_include_weights_and_norm(self):
        layer = make_conv()
        assert layer.params() == pytest.approx(3 * 3 * 32 * 64 + 3 * 64)

    def test_output_elements_and_bytes(self):
        layer = make_conv()
        assert layer.output_elements() == 64 * 16 * 16
        assert layer.output_bytes() == 64 * 16 * 16 * BYTES_PER_ELEMENT

    def test_input_elements_use_input_spatial(self):
        layer = make_conv(in_spatial=(32, 32), out_spatial=(16, 16), stride=2)
        assert layer.input_elements() == 32 * 32 * 32
        assert layer.input_elements(16) == 16 * 32 * 32

    def test_out_units_out_of_range_rejected(self):
        layer = make_conv()
        with pytest.raises(ConfigurationError):
            layer.flops(out_units=65)
        with pytest.raises(ConfigurationError):
            layer.flops(out_units=0)

    def test_in_units_out_of_range_rejected(self):
        layer = make_conv()
        with pytest.raises(ConfigurationError):
            layer.flops(in_units=33)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            make_conv(kernel_size=0)
        with pytest.raises(ConfigurationError):
            make_conv(out_spatial=(0, 16))
        with pytest.raises(ConfigurationError):
            make_conv(groups=0)

    def test_invalid_width_rejected(self):
        with pytest.raises(ConfigurationError):
            make_conv(width=0)
        with pytest.raises(ConfigurationError):
            make_conv(in_width=0)

    def test_fused_overhead_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            make_conv(fused_overhead=0.9)

    def test_kind_and_granularity(self):
        layer = make_conv()
        assert layer.kind == "conv2d"
        assert layer.partition_granularity == 1

    def test_with_name_returns_renamed_copy(self):
        layer = make_conv()
        renamed = layer.with_name("other")
        assert renamed.name == "other"
        assert renamed.width == layer.width
        assert layer.name == "conv"


class TestLinearLayer:
    def test_flops_formula(self):
        layer = LinearLayer(name="fc", width=100, in_width=512, tokens=1)
        assert layer.flops() == pytest.approx(2 * 512 * 100)

    def test_tokens_scale_flops(self):
        one = LinearLayer(name="fc", width=64, in_width=64, tokens=1)
        many = LinearLayer(name="fc", width=64, in_width=64, tokens=16)
        assert many.flops() == pytest.approx(16 * one.flops())

    def test_params(self):
        layer = LinearLayer(name="fc", width=100, in_width=512)
        assert layer.params() == 512 * 100 + 100

    def test_output_and_input_elements(self):
        layer = LinearLayer(name="fc", width=100, in_width=512, tokens=4)
        assert layer.output_elements() == 4 * 100
        assert layer.input_elements() == 4 * 512

    def test_invalid_tokens_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearLayer(name="fc", width=10, in_width=10, tokens=0)


class TestAttentionLayer:
    def make(self, **overrides):
        defaults = dict(name="attn", width=192, in_width=192, tokens=64, num_heads=6)
        defaults.update(overrides)
        return AttentionLayer(**defaults)

    def test_head_dim_and_granularity(self):
        layer = self.make()
        assert layer.head_dim == 32
        assert layer.partition_granularity == 32

    def test_width_must_divide_heads(self):
        with pytest.raises(ConfigurationError):
            self.make(width=190)

    def test_flops_formula(self):
        layer = self.make()
        tokens, dim = 64, 192
        qkv = 3 * 2 * tokens * dim * dim
        attention = 4 * tokens * tokens * dim
        projection = 2 * tokens * dim * dim
        assert layer.flops() == pytest.approx(qkv + attention + projection)

    def test_partial_heads_cost_less(self):
        layer = self.make()
        assert layer.flops(out_units=96) < layer.flops()

    def test_output_elements(self):
        layer = self.make()
        assert layer.output_elements() == 64 * 192
        assert layer.output_elements(96) == 64 * 96

    def test_params_positive_and_monotone(self):
        layer = self.make()
        assert layer.params(out_units=64) < layer.params()

    def test_kind(self):
        assert self.make().kind == "attention"


class TestFeedForwardLayer:
    def make(self, **overrides):
        defaults = dict(name="mlp", width=192, in_width=192, tokens=64, expansion=4.0)
        defaults.update(overrides)
        return FeedForwardLayer(**defaults)

    def test_hidden_units_follow_expansion(self):
        layer = self.make()
        assert layer.hidden_units() == 768
        assert layer.hidden_units(96) == 384

    def test_flops_formula(self):
        layer = self.make()
        expected = 2 * 64 * 192 * 768 + 2 * 64 * 768 * 192
        assert layer.flops() == pytest.approx(expected)

    def test_invalid_expansion_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make(expansion=0.0)

    def test_output_elements(self):
        layer = self.make()
        assert layer.output_elements() == 64 * 192

    def test_partial_width_reduces_all_costs(self):
        layer = self.make()
        assert layer.flops(out_units=96) < layer.flops()
        assert layer.params(out_units=96) < layer.params()
        assert layer.output_bytes(96) < layer.output_bytes()

    def test_kind(self):
        assert self.make().kind == "feedforward"


NAN, INF = float("nan"), float("inf")

#: Each built-in kind with one numeric field NaN or +-inf.
NON_FINITE_LAYERS = {
    "width-nan": lambda: LinearLayer(name="bad", width=NAN, in_width=8),
    "width-inf": lambda: LinearLayer(name="bad", width=INF, in_width=8),
    "in-width-nan": lambda: make_conv(name="bad", in_width=NAN),
    "linear-tokens-inf": lambda: LinearLayer(name="bad", width=8, in_width=8, tokens=INF),
    "linear-tokens-nan": lambda: LinearLayer(name="bad", width=8, in_width=8, tokens=NAN),
    "feedforward-expansion-inf": lambda: FeedForwardLayer(
        name="bad", width=8, in_width=8, expansion=INF
    ),
    "feedforward-expansion-nan": lambda: FeedForwardLayer(
        name="bad", width=8, in_width=8, expansion=NAN
    ),
    "attention-tokens-nan": lambda: AttentionLayer(
        name="bad", width=12, in_width=12, tokens=NAN, num_heads=3
    ),
    "attention-tokens-inf": lambda: AttentionLayer(
        name="bad", width=12, in_width=12, tokens=INF, num_heads=3
    ),
    "conv-kernel-size-nan": lambda: make_conv(name="bad", kernel_size=NAN),
    "conv-stride-nan": lambda: make_conv(name="bad", stride=NAN),
    "conv-stride-inf": lambda: make_conv(name="bad", stride=INF),
    "conv-groups-nan": lambda: make_conv(name="bad", groups=NAN),
    "conv-in-spatial-nan": lambda: make_conv(name="bad", in_spatial=(NAN, 3)),
    "conv-out-spatial-inf": lambda: make_conv(name="bad", out_spatial=(3, INF)),
    "conv-fused-overhead-inf": lambda: make_conv(name="bad", fused_overhead=INF),
    "conv-fused-overhead-nan": lambda: make_conv(name="bad", fused_overhead=NAN),
}


@pytest.mark.parametrize("build", list(NON_FINITE_LAYERS.values()), ids=list(NON_FINITE_LAYERS))
def test_non_finite_numbers_are_rejected_naming_the_layer(build):
    # Constructing one used to pass; pricing it then raised an error naming
    # no layer.
    with pytest.raises(ConfigurationError, match="^layer 'bad': "):
        build()
