"""The one memo primitive, `fflinalg.memo`: how a store is keyed, that
every result is kept (None and False included), and that a store lives no
longer than its owner."""
import gc
import weakref

from exactcat import approx, category
from exactcat.approx import AddSubcat
from exactcat.category import Category, conflation_split
from exactcat.fflinalg import FpMatrix, memo, memo_store, obj_key
from exactcat.repcat import RepCategory, a_n


class Owner:
    def __init__(self):
        self.calls = []

    @memo
    def one(self, n):
        self.calls.append(n)
        return None

    @memo
    def two(self, a, b):
        self.calls.append((a, b))
        return False

    @memo(key=obj_key)
    def of_object(self, x):
        self.calls.append(x)
        return x

    @memo(key=obj_key)
    def of_objects(self, x, y):
        self.calls.append((x, y))
        return 0

    @memo(key=lambda x, side: (x.key, side))
    def custom(self, x, side):
        self.calls.append((x, side))
        return ()


def test_each_function_has_one_store_keyed_as_declared():
    owner, x, y = Owner(), FpMatrix(2, [[1]]), FpMatrix(2, [[0, 1]])
    for _ in range(2):
        assert owner.one(3) is None
        assert owner.two(1, 2) is False
        assert owner.of_object(x) is x
        assert owner.of_objects(x, y) == 0
        assert owner.custom(x, "left") == ()
    assert owner.calls == [3, (1, 2), x, (x, y), (x, "left")]
    # the arguments as they are, the objects' keys, or the key function's value
    assert memo_store(owner, Owner.one) == {(3,): None}
    assert memo_store(owner, Owner.two) == {(1, 2): False}
    assert memo_store(owner, Owner.of_object) == {x.key: x}
    assert memo_store(owner, Owner.of_objects) == {(x.key, y.key): 0}
    assert memo_store(owner, Owner.custom) == {(x.key, "left"): ()}
    # another owner has stores of its own
    assert memo_store(Owner(), Owner.one) == {}


def test_a_cached_none_or_false_is_a_hit(monkeypatch):
    cat = RepCategory(a_n(2), 3)
    p1 = cat.obj({"1": 1, "2": 1}, {"a1": FpMatrix(3, [[1]])})
    s1, s2 = cat.obj({"1": 1}), cat.obj({"2": 1})
    solves = []
    real_post, real_pre = category.solve_postcompose, approx.solve_precompose
    monkeypatch.setattr(category, "solve_postcompose", lambda *a: solves.append(a) or real_post(*a))
    monkeypatch.setattr(approx, "solve_precompose", lambda *a: solves.append(a) or real_pre(*a))
    nonsplit = cat.conflation(cat.hom_basis(s2, p1)[0], cat.hom_basis(p1, s1)[0])
    assert conflation_split(cat, nonsplit) is None
    assert conflation_split(cat, nonsplit) is None
    assert len(solves) == 1
    sub = AddSubcat(cat, [p1])
    assert sub.contains(s1) is False
    assert sub.contains(s1) is False
    assert len(solves) == 2


def test_a_store_does_not_keep_its_owner_alive():
    cat = RepCategory(a_n(2), 2)
    s1, s2 = cat.obj({"1": 1}), cat.obj({"2": 1})
    cat.hom_basis(s1, s2)
    cat.hom_basis(s2, s2)
    assert len(memo_store(cat, Category.hom_basis)) == 2
    owner = weakref.ref(cat)
    del cat
    gc.collect()
    assert owner() is None
