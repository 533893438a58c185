"""The paper's platform and protocol constants.

Table III platform (Hermione node): dual-socket Intel Ivy Bridge
E5-2670v2, 10 cores/socket @ 2.5 GHz, 25 MB shared L3 per socket,
62 GiB RAM, hyper-threading disabled.  Threads pinned sockets-first
(``--hpx:bind`` / ``taskset``); launch policy ``async``; 20 samples per
experiment with medians reported.  One experiment is one
:class:`~repro.campaign.spec.CampaignSpec`; its defaults come from here.
"""

#: Core grid of the strong-scaling figures (paper: 1..20 in 2s).
PAPER_CORE_COUNTS = (1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20)

#: A cheaper grid: Table V, and every campaign that names none.
QUICK_CORE_COUNTS = (1, 2, 4, 8, 10, 16, 20)

#: Samples per point unless a campaign names its own (paper: 20).
DEFAULT_SAMPLES = 3
