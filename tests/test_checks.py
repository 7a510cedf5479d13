from evebounds import checks, fock


def test_switching_rules_residual_and_sparse_calls(monkeypatch):
    # Squeezers are the one generator kind left on the sparse route: one
    # for the probe and four for the rules, per draw, over three draws.
    calls = []
    sparse = fock.apply_generator

    def counted(gen, ket):
        calls.append(gen.shape)
        return sparse(gen, ket)

    monkeypatch.setattr(fock, "apply_generator", counted)
    result = checks.check_switching_rules_fock()
    assert len(calls) == 15
    # The residual sits at the round-off floor of 1 - |<lhs|rhs>|^2.
    assert abs(result.residual - 7.300048299977713e-08) < 1e-12
    assert result.passed
