"""Dataset regeneration from a provenance record, which only tests use.

Every Dataset records what made it: the two-moons generator's arguments, or
the IDX files' paths with the subsample size and seed. Rebuilding a dataset
from that record and comparing it with the original checks the record.
"""

from smoothcert.data import Dataset, gen_two_moons, load_mnist_idx


def from_provenance(prov: dict) -> Dataset:
    """Regenerate a dataset from its provenance record."""
    kind = prov.get("kind")
    if kind == "two_moons":
        return gen_two_moons(prov["n"], prov["noise_std"], prov["seed"], prov["split"])
    if kind == "mnist":
        return load_mnist_idx(prov["images_path"], prov["labels_path"],
                              prov["subsample"], prov["seed"], prov["split"])
    raise ValueError(f"unknown provenance kind {kind!r}")
