"""Named baseline models used as comparison points in Figure 6.

Each baseline is expressed as an :class:`ArchSpec` so that it can be pushed
through the same training and hardware pipelines as searched models.
EfficientNet-B0 is a genuine member of the MnasNet backbone family (its stage
6 uses 4 layers, outside the searchable {1,2,3} range, but the builder accepts
it).  The EdgeTPU-S and MobileNetV3-like entries are in-family approximations
of the shapes those papers report: EdgeTPU-S avoids depthwise-hostile SE and
favours larger kernels early; MobileNetV3-Large is shallower with selective SE.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.searchspace.mnasnet import ArchSpec


@dataclass(frozen=True)
class BaselineModel:
    """A named reference architecture.

    Attributes:
        name: Identifier used in figures and result tables.
        arch: The architecture specification.
        paper_top1: Top-1 ImageNet accuracy reported by the original paper
            (reference scheme), recorded for EXPERIMENTS.md comparison only.
    """

    name: str
    arch: ArchSpec
    paper_top1: float


EFFICIENTNET_B0 = BaselineModel(
    name="effnet-b0",
    arch=ArchSpec(
        expansion=(1, 6, 6, 6, 6, 6, 6),
        kernel=(3, 3, 5, 3, 5, 5, 3),
        layers=(1, 2, 2, 3, 3, 4, 1),
        se=(1, 1, 1, 1, 1, 1, 1),
    ),
    paper_top1=0.771,
)

EFFICIENTNET_EDGETPU_S = BaselineModel(
    name="effnet-edgetpu-s",
    arch=ArchSpec(
        expansion=(4, 6, 6, 6, 6, 6, 6),
        kernel=(3, 3, 5, 3, 5, 5, 3),
        layers=(1, 2, 2, 3, 3, 3, 1),
        se=(0, 0, 0, 0, 0, 0, 0),
    ),
    paper_top1=0.773,
)

MOBILENET_V3_LARGE = BaselineModel(
    name="mobilenetv3-large",
    arch=ArchSpec(
        expansion=(1, 4, 4, 6, 6, 6, 6),
        kernel=(3, 3, 5, 3, 3, 5, 5),
        layers=(1, 2, 3, 3, 2, 3, 1),
        se=(0, 0, 1, 0, 1, 1, 1),
    ),
    paper_top1=0.752,
)

MNASNET_A1 = BaselineModel(
    name="mnasnet-a1",
    arch=ArchSpec(
        expansion=(1, 6, 3, 6, 6, 6, 6),
        kernel=(3, 3, 5, 3, 3, 5, 3),
        layers=(1, 2, 3, 3, 2, 3, 1),
        se=(0, 0, 1, 0, 1, 1, 0),
    ),
    paper_top1=0.752,
)

BASELINE_MODELS: tuple[BaselineModel, ...] = (
    EFFICIENTNET_B0,
    EFFICIENTNET_EDGETPU_S,
    MOBILENET_V3_LARGE,
    MNASNET_A1,
)
