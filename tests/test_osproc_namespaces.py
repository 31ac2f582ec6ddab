"""Tests for the namespace model."""

import pytest

from repro.osproc.namespaces import Namespace, NamespaceKind, NamespaceSet


class TestNamespaceSet:
    def test_fresh_set_covers_all_kinds(self):
        ns = NamespaceSet()
        for kind in NamespaceKind:
            assert ns.get(kind).kind is kind

    def test_missing_kind_rejected(self):
        partial = {NamespaceKind.PID: Namespace.fresh(NamespaceKind.PID)}
        with pytest.raises(ValueError, match="missing kinds"):
            NamespaceSet(partial)

    def test_clone_shares_unlisted_kinds(self):
        parent = NamespaceSet()
        child = parent.clone_with_new(NamespaceKind.PID)
        assert child.get(NamespaceKind.PID) != parent.get(NamespaceKind.PID)
        assert child.get(NamespaceKind.NET) == parent.get(NamespaceKind.NET)

    def test_clone_all_new_is_fully_distinct(self):
        parent = NamespaceSet()
        child = parent.clone_with_new(*NamespaceKind)
        for kind in NamespaceKind:
            assert child.get(kind) != parent.get(kind)

    def test_ids_serializable_roundtrip(self):
        ns = NamespaceSet()
        ids = ns.ids()
        assert set(ids) == {k.value for k in NamespaceKind}
        assert ids == NamespaceSet(
            {k: ns.get(k) for k in NamespaceKind}).ids()

    def test_equality_and_hash(self):
        ns = NamespaceSet()
        same = NamespaceSet({k: ns.get(k) for k in NamespaceKind})
        other = NamespaceSet()
        assert ns == same
        assert hash(ns) == hash(same)
        assert ns != other

    def test_namespace_str_format(self):
        ns = Namespace.fresh(NamespaceKind.MNT)
        assert str(ns) == f"mnt:[{ns.ns_id}]"

    def test_fresh_ids_unique(self):
        ids = {Namespace.fresh(NamespaceKind.PID).ns_id for _ in range(100)}
        assert len(ids) == 100
