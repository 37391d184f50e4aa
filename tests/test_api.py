import rankforge


def test_all_names_resolve_once():
    names = rankforge.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(rankforge, n)] == []
