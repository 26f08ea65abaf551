"""Weil-style pairing on p-torsion over the dual numbers F_p[eps],
and the anomalous-curve discrete-log attacks it unifies.

`import dualpair` loads no submodule.  Each public name below, and each
submodule name, is resolved on first use (PEP 562 `__getattr__`): reading
`dualpair.Curve` imports `dualpair.curve` and keeps the name here, so a
caller, the CLI included, pays only for the modules it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in (
        ("curve", "INFINITY Curve Point count_points find_anomalous hasse_interval"),
        ("dlp", "AttackResult DlpInstance attack_lift attack_pairing attack_rueck attack_semaev canonical_witness "
                "solve torsion_preserving_lifts"),
        ("dual_curve", "DualCurve DualPoint"),
        ("errors", "DualPairError"),
        ("fields", "DualNumber Fp FpElement"),
        ("isogeny", "Isogeny check_functoriality compute_m division_polynomial find_cyclic_isogeny frobenius_isogeny "
                    "identity_isogeny multiplication_isogeny velu velu_from_kernel_polynomial"),
        ("miller", "binary_chain h_eval incremental_chain miller_eval tail_chain weil_pairing"),
        ("pairing", "PairingValue lifted_pairing pairing_direct pairing_rueck pairing_semaev rueck_slope_sum "
                    "semaev_coefficient semaev_log_derivative theta_pairing"),
        ("poly", "Polynomial cubic_roots"),
    )
    for name in names.split()
}
_SUBMODULES = "cli curve dlp dual_curve errors fields isogeny miller numbertheory pairing poly selfcheck".split()

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here as well
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
