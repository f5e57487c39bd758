"""Two-stage universal lossy coding and identification of parametric
stationary mixing sources."""

from .bitcode import BitReader, BitString, TruncatedStreamError, elias_encode
from .distances import DistanceEstimate, variational_mc
from .ecvq import (Codebook, LagrangianReport, ecvq_design, ecvq_encode,
                   lagrangian_eval)
from .mde import CandidateSet, mde_estimate, vc_bound
from .models import (GaussianAR, GaussianIID, HiddenMarkov,
                     InvalidParameterError, SampleBlock, SourceFamily,
                     make_family)
from .scheme import (Database, EncodedBlock, MalformedStreamError,
                     SchemeConfig, decode_block, encode_block, gap_length,
                     identify, waiting_time)

__version__ = "0.1.0"
