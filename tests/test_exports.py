import rpnn_ode


def test_every_export_resolves_and_appears_once():
    names = rpnn_ode.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(rpnn_ode, name)]
    assert missing == []
