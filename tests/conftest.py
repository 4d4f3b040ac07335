"""Shared fixtures for the Map-and-Conquer test suite.

Fixtures are deliberately small (few layers, tiny search budgets) so the full
suite runs in seconds while still exercising every code path of the library.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamics.accuracy import AccuracyModel
from repro.nn.channels import rank_channels
from repro.nn.graph import NetworkGraph
from repro.nn.layers import AttentionLayer, Conv2dLayer, FeedForwardLayer, LinearLayer
from repro.nn.models import resnet20, vgg19, visformer
from repro.nn.multiexit import build_dynamic_network
from repro.nn.partition import IndicatorMatrix, PartitionMatrix
from repro.perf.evaluator import MappingEvaluator
from repro.search.evaluation import ConfigEvaluator
from repro.search.space import MappingConfig, SearchSpace
from repro.soc.platform import jetson_agx_xavier


@pytest.fixture(scope="session")
def platform():
    """Calibrated Jetson AGX Xavier platform (GPU + 2 DLAs)."""
    return jetson_agx_xavier()

@pytest.fixture(scope="session")
def platform_with_cpu():
    """Xavier platform with the Carmel CPU cluster exposed as a fourth unit."""
    return jetson_agx_xavier(include_cpu=True)


@pytest.fixture(scope="session")
def visformer_net():
    """The Visformer network graph used throughout the paper."""
    return visformer()


@pytest.fixture(scope="session")
def vgg19_net():
    """The VGG19 network graph used in the generalisation study."""
    return vgg19()


@pytest.fixture(scope="session")
def resnet_net():
    """The ResNet-20 extension model."""
    return resnet20()


@pytest.fixture(scope="session")
def tiny_network():
    """A four-layer toy network small enough to reason about by hand."""
    layers = (
        Conv2dLayer(
            name="conv1",
            width=16,
            in_width=3,
            kernel_size=3,
            stride=1,
            in_spatial=(8, 8),
            out_spatial=(8, 8),
        ),
        AttentionLayer(name="attn", width=32, in_width=16, tokens=16, num_heads=4),
        FeedForwardLayer(name="mlp", width=32, in_width=32, tokens=16, expansion=2.0),
        LinearLayer(name="head", width=10, in_width=32, tokens=1),
    )
    return NetworkGraph(
        name="tiny",
        layers=layers,
        input_shape=(3, 8, 8),
        num_classes=10,
        base_accuracy=0.9,
        family="vit",
    )


@pytest.fixture(scope="session")
def tiny_ranking(tiny_network):
    """Deterministic channel ranking for the toy network."""
    return rank_channels(tiny_network, seed=0)


@pytest.fixture(scope="session")
def visformer_ranking(visformer_net):
    """Deterministic channel ranking for Visformer."""
    return rank_channels(visformer_net, seed=0)


@pytest.fixture()
def tiny_dynamic(tiny_network, tiny_ranking):
    """A 3-stage dynamic version of the toy network with full feature reuse."""
    num_layers = 3  # backbone excludes the classifier head
    partition = PartitionMatrix.uniform(3, num_layers)
    indicator_values = np.ones((3, num_layers), dtype=int)
    indicator_values[-1, :] = 0
    return build_dynamic_network(
        tiny_network,
        partition=partition,
        indicator=IndicatorMatrix(indicator_values),
        ranking=tiny_ranking,
    )


@pytest.fixture()
def tiny_mapping_config(tiny_dynamic, platform):
    """A hand-built mapping configuration for the toy dynamic network."""
    return MappingConfig(
        partition=tiny_dynamic.partition,
        indicator=tiny_dynamic.indicator,
        unit_names=("gpu", "dla0", "dla1"),
        dvfs_indices=(
            platform.unit("gpu").num_dvfs_points() - 1,
            platform.unit("dla0").num_dvfs_points() - 1,
            platform.unit("dla1").num_dvfs_points() - 1,
        ),
    )


@pytest.fixture()
def mapping_evaluator(platform):
    """Hardware evaluator with the analytical oracle."""
    return MappingEvaluator(platform)


@pytest.fixture()
def tiny_config_evaluator(tiny_network, platform):
    """Full configuration-evaluation pipeline for the toy network."""
    return ConfigEvaluator(network=tiny_network, platform=platform, seed=0)


@pytest.fixture()
def tiny_space(tiny_network, platform):
    """Search space of the toy network on the Xavier platform."""
    return SearchSpace(network=tiny_network, platform=platform)


@pytest.fixture()
def visformer_space(visformer_net, platform):
    """Search space of Visformer on the Xavier platform."""
    return SearchSpace(network=visformer_net, platform=platform)


@pytest.fixture()
def accuracy_model():
    """Default calibrated accuracy model."""
    return AccuracyModel()
