import numpy as np
import pytest

from capt import diffcore as dc
from capt import phonology as ph
from capt.encoder import EncoderConfig, init_params
from capt.errors import ContractError, InventoryError, ShapeError
from capt.features import (assemble_utterance_features,
                           build_onehot_attr_matrix,
                           check_embedding_injective, feature_params)
from capt.model import init_model, load_model, save_model


# --- inventory and attribute table -----------------------------------------

def test_inventory_size_and_specials():
    assert ph.N_PHONES == 41
    assert len(ph.ARPABET_39) == 39
    assert ph.PHONES[ph.DEL_ID] == "<del>"
    assert ph.PHONES[ph.UNK_ID] == "<unk>"
    assert ph.phone_id("AA") == 0
    with pytest.raises(InventoryError):
        ph.phone_id("XX")


def test_attribute_table_loads_and_validates():
    table = ph.packaged_table()[0]
    assert table.shape == (41, 24)
    assert set(np.unique(table)) <= {0.0, 1.0}
    # <del> and <unk> are all-zero
    assert not table[ph.DEL_ID].any()
    assert not table[ph.UNK_ID].any()
    # every real phone has >= 2 attributes
    real = np.delete(table, [ph.DEL_ID, ph.UNK_ID], axis=0)
    assert (real.sum(axis=1) >= 2).all()


def test_attribute_table_vowel_constraints():
    table = ph.packaged_table()[0]
    names = ph.ATTRIBUTE_NAMES
    vowel = names.index("vowel")
    height = [names.index(a) for a in ("high", "mid", "low")]
    back = [names.index(a) for a in ("front", "central", "back")]
    for i, p in enumerate(ph.PHONES):
        if p in ("<del>", "<unk>"):
            continue
        if table[i, vowel]:
            assert table[i, height].sum() == 1, p
            assert table[i, back].sum() == 1, p
        else:
            assert table[i, height].sum() == 0 and table[i, back].sum() == 0, p


def test_attribute_table_rejects_bad_rows():
    good = ph.default_table_text()
    with pytest.raises(InventoryError):
        ph.load_attribute_table(good + "\nAA " + "0 " * 24)  # duplicate
    with pytest.raises(InventoryError):
        ph.load_attribute_table(good.replace("AA", "QQ", 1))  # unknown symbol
    lines = good.splitlines()
    dropped = "\n".join(l for l in lines if not l.startswith("ZH "))
    with pytest.raises(InventoryError):
        ph.load_attribute_table(dropped)  # missing phone


@pytest.mark.parametrize("token", ["x", "2", "01", "1.0", "-0"])
def test_attribute_table_rejects_non_binary_token(token):
    # AA's row is line 8 of the packaged table; its first bit (voiced) is 1
    text = ph.default_table_text().replace("\nAA 1 ", f"\nAA {token} ", 1)
    with pytest.raises(InventoryError, match="phonology table line 8: non-binary attribute"):
        ph.load_attribute_table(text)


def test_table_checksum_is_stable_and_content_sensitive():
    assert ph.packaged_table()[1] == ph.table_checksum(ph.default_table_text())
    assert ph.table_checksum("x") != ph.table_checksum("y")


def test_each_init_or_load_reads_and_parses_the_table_once(tmp_path, monkeypatch):
    reads, parses = [], []
    read, parse = ph.default_table_text, ph.load_attribute_table
    monkeypatch.setattr(ph, "default_table_text", lambda: reads.append(1) or read())
    monkeypatch.setattr(ph, "load_attribute_table", lambda text: parses.append(1) or parse(text))
    cfg = EncoderConfig(d_model=4, d_state=2, n_layers=1, n_think=1)
    for seed in range(3):
        save_model(init_model(cfg, feat_dim=3, seed=seed), tmp_path / f"{seed}.capt")
    for seed in range(2):
        load_model(tmp_path / f"{seed}.capt")
    assert (len(reads), len(parses)) == (5, 5)


def test_broken_packaged_table_raises_from_init_and_load(tmp_path, monkeypatch):
    cfg = EncoderConfig(d_model=4, d_state=2, n_layers=1, n_think=1)
    save_model(init_model(cfg, feat_dim=3, seed=0), tmp_path / "m.capt")
    broken = ph.default_table_text().replace("AA", "QQ", 1)
    monkeypatch.setattr(ph, "default_table_text", lambda: broken)
    with pytest.raises(InventoryError, match="unknown symbol 'QQ'"):
        init_model(cfg, feat_dim=3, seed=0)
    with pytest.raises(InventoryError, match="unknown symbol 'QQ'"):
        load_model(tmp_path / "m.capt")


def test_known_phone_attributes():
    table = ph.packaged_table()[0]
    names = ph.ATTRIBUTE_NAMES
    b = table[ph.phone_id("B")]
    assert b[names.index("voiced")] == 1
    assert b[names.index("stop")] == 1
    assert b[names.index("bilabial")] == 1
    s = table[ph.phone_id("S")]
    assert s[names.index("voiced")] == 0
    assert s[names.index("fricative")] == 1
    iy = table[ph.phone_id("IY")]
    assert iy[names.index("vowel")] == 1
    assert iy[names.index("high")] == 1
    assert iy[names.index("front")] == 1


# --- embeddings and fusion --------------------------------------------------

def test_onehot_attr_matrix_shape_and_content():
    table = ph.packaged_table()[0]
    mat = build_onehot_attr_matrix(table)
    assert mat.shape == (41, 65)
    np.testing.assert_array_equal(mat[:, :41], np.eye(41))
    np.testing.assert_array_equal(mat[:, 41:], table)


def test_embeddings_are_injective_at_init():
    rng = np.random.default_rng(0)
    store = init_params(feature_params(feat_dim=9, d_model=16), rng)
    mat = build_onehot_attr_matrix(ph.packaged_table()[0])
    check_embedding_injective(mat, store["embed.w"].data)
    # a rank-destroying projection must be rejected
    with pytest.raises(ContractError):
        check_embedding_injective(mat, np.zeros((65, 16)))


def test_assemble_features_shape_and_grad():
    rng = np.random.default_rng(1)
    store = init_params(feature_params(feat_dim=5, d_model=6), rng)
    mat = build_onehot_attr_matrix(ph.packaged_table()[0])
    rows = rng.normal(size=(4, 5))
    ids = np.array([0, 5, 12, 40])
    out = assemble_utterance_features(rows, ids, mat, store)
    assert out.data.shape == (4, 6)
    # fusion is additive: projected acoustics + canonical embedding
    expect = rows @ store["feat.proj.w"].data + mat[ids] @ store["embed.w"].data
    np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def f():
        return dc.mean(assemble_utterance_features(rows, ids, mat, store))

    assert dc.grad_check(f, store.tensors(), epsilon=1e-4) < 1e-4


def test_assemble_features_rejects_bad_rows():
    rng = np.random.default_rng(2)
    store = init_params(feature_params(feat_dim=5, d_model=6), rng)
    mat = build_onehot_attr_matrix(ph.packaged_table()[0])
    with pytest.raises(ShapeError):
        assemble_utterance_features(np.zeros((3, 5)), np.array([0, 1]), mat, store)
