"""Sirius reproduction: an open end-to-end voice & vision personal assistant.

This library reproduces Hauswald et al., "Sirius: An Open End-to-End Voice
and Vision Personal Assistant and Its Implications for Future Warehouse
Scale Computers" (ASPLOS 2015):

- :mod:`repro.core` — the end-to-end IPA pipeline and query taxonomy;
- :mod:`repro.asr`, :mod:`repro.qa`, :mod:`repro.imm`,
  :mod:`repro.websearch`, :mod:`repro.regex` — the from-scratch substrates;
- :mod:`repro.suite` — the 7 Sirius Suite compute kernels (Table 4);
- :mod:`repro.platforms` — accelerator specs and the calibrated speedup
  model (Tables 3/5/6);
- :mod:`repro.datacenter` — M/M/1 queueing, the Google-style TCO model, and
  the design-space search (Table 7-9, Figures 16-21);
- :mod:`repro.analysis` — cycle breakdowns, bottleneck model, variability.

Quickstart::

    from repro import SiriusPipeline, InputSet
    pipeline = SiriusPipeline.build()
    for query in InputSet.build().all_queries:
        print(pipeline.process(query).summary())
"""

from repro.core import (
    InputSet,
    IPAQuery,
    QueryType,
    SiriusPipeline,
    SiriusResponse,
)
from repro.errors import SiriusError

__version__ = "1.0.0"

__all__ = [
    "InputSet",
    "IPAQuery",
    "QueryType",
    "SiriusError",
    "SiriusPipeline",
    "SiriusResponse",
    "__version__",
]
