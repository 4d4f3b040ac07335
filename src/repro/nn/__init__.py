"""Neural-network intermediate representation and model zoo.

The paper treats a network as a chain of layers (Eq. 1) whose *width*
(channels, attention heads, hidden units) can be partitioned across stages.
This subpackage provides:

* :mod:`repro.nn.layers` -- symbolic layer descriptors with analytical
  FLOP / parameter / feature-map-size accounting,
* :mod:`repro.nn.graph` -- the sequential :class:`NetworkGraph`,
* :mod:`repro.nn.models` -- Visformer, VGG19 and ResNet builders,
* :mod:`repro.nn.channels` -- channel-importance ranking (Sect. V-D),
* :mod:`repro.nn.partition` -- the ``P`` / ``I`` matrices and the width
  partitioning operation (Sect. III-A),
* :mod:`repro.nn.multiexit` -- the static-to-dynamic multi-exit
  transformation, viewed per candidate over its arrays (Eq. 5-6).
"""

from .layers import (
    AttentionLayer,
    Conv2dLayer,
    FeedForwardLayer,
    Layer,
    LinearLayer,
)
from .graph import NetworkGraph
from .channels import ChannelRanking, rank_channels
from .partition import IndicatorMatrix, PartitionMatrix
from .multiexit import DynamicNetwork, build_dynamic_network

__all__ = [
    "Layer",
    "Conv2dLayer",
    "LinearLayer",
    "AttentionLayer",
    "FeedForwardLayer",
    "NetworkGraph",
    "ChannelRanking",
    "rank_channels",
    "PartitionMatrix",
    "IndicatorMatrix",
    "DynamicNetwork",
    "build_dynamic_network",
]
