"""Attack implementations: CFB attacks and replay attacks.

These are the adversaries SecureLease is designed to defeat:

* :mod:`repro.attacks.cfb` — control-flow bending on the virtual CPU
  (Section 2.1.1): CFG-diff analysis to locate the authentication
  branch, then branch flipping / function skipping with state fix-up.
* :mod:`repro.attacks.replay` — the crash-replay attack on SL-Local
  (Section 5.7): crash before a lease decrement persists, replay the
  stale tree.

The test suite drives both against unprotected and SecureLease-hardened
configurations and asserts the paper's security claims.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AttackOutcome": "repro.attacks.cfb",
    "BranchFlipAttack": "repro.attacks.cfb",
    "CfbAnalysis": "repro.attacks.cfb",
    "FunctionSkipAttack": "repro.attacks.cfb",
    "analyze_cfg_diff": "repro.attacks.cfb",
    "run_cfb_attack": "repro.attacks.cfb",
    "ReplayAttacker": "repro.attacks.replay",
    "ReplayOutcome": "repro.attacks.replay",
    "AuthGuess": "repro.attacks.unsupervised",
    "StateFixupAttack": "repro.attacks.unsupervised",
    "collect_traces": "repro.attacks.unsupervised",
    "guess_auth_function": "repro.attacks.unsupervised",
})
