"""Streaming erasure codes for variable-size messages over burst channels.

The package bundles an online rate-optimal codec for the zero-lossless-delay
regime, a diagonal interleaving codec for the divisible regime, offline
reference schemes, and brute-force oracles that verify every decodability
and rate claim at desk scale.

The package exports the names of the README's library example; everything
else is imported from its module (`streamfec.channel`, `streamfec.oracle`,
and so on), and every module is an attribute of the package.
"""

from . import baselines, cauchy, channel, codecs, gap, gf, linear, model, oracle, vgms
from .codecs import bind_codec
from .gf import field
from .model import make_params, random_payload, terminate_sizes

__all__ = ["bind_codec", "field", "make_params", "random_payload", "terminate_sizes"]
