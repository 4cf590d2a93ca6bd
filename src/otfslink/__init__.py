"""Link-level MIMO-OTFS simulator with importance-matched sub-channel allocation.

Submodules:

* :mod:`otfslink.dd_transforms` -- delay-Doppler <-> time transforms
* :mod:`otfslink.channel`       -- path-based DD MIMO channel model + AWGN
* :mod:`otfslink.precoding`     -- SVD sub-channels, precoder/combiner modes
* :mod:`otfslink.allocation`    -- entropy scores, Kendall correlation, allocation
* :mod:`otfslink.modem`         -- Gray 64-QAM, hard demapping, zero forcing
* :mod:`otfslink.special`       -- sigmoid, erfc and normal CDF on numpy arrays
* :mod:`otfslink.link_sim`      -- end-to-end runs, sweeps, CSV rows
* :mod:`otfslink.losses`        -- rate/distortion/alignment objectives
* :mod:`otfslink.validation`    -- invariant suite of ``validate`` and the acceptance tests
* :mod:`otfslink.cli`           -- ``otfslink`` command-line entry point
"""

__version__ = "0.8.0"

from .allocation import (
    allocate,
    apply_allocation,
    exact_kendall_tau,
    gaussian_bin_entropy,
    invert_allocation,
    soft_kendall,
)
from .channel import (
    DdMimoChannel,
    PathParams,
    apply_channel,
    build_time_channel,
    phase_rotation_matrix,
    sample_channel,
    ula_response,
)
from .dd_transforms import (
    dft_matrix,
    otfs_demodulate,
    otfs_modulate,
    stack_chains,
    unstack_chains,
)
from .link_sim import (
    LinkMetrics,
    SimConfig,
    SweepRow,
    run_link,
    run_random_link,
    snr_to_noise_var,
)
from .losses import LossWeights, cross_entropy, l1_loss, l2_loss, rate_term
from .modem import (
    constellation_points,
    demodulate_hard,
    equalize,
    modulate,
    square_qam_ser,
)
from .precoding import (
    PrecoderCombiner,
    RankDeficientChannelError,
    SubChannelDecomposition,
    build_precoder_combiner,
    decompose,
    sub_channel_gains,
)
