#!/usr/bin/env python3
"""Walk through the data layer: triple files, vocabularies, popularity.

Builds a tiny knowledge graph on disk, loads it back, and prints the
summary statistics and the popularity counts that the weighting scheme
later relies on.
"""

import tempfile
from pathlib import Path

from probe_eval import dataset_stats, export_vocabulary, load_dataset

TRAIN = """\
berlin\tcapital_of\tgermany
paris\tcapital_of\tfrance
germany\tneighbor_of\tfrance
france\tneighbor_of\tspain
berlin\tlocated_in\tgermany
paris\tlocated_in\tfrance
madrid\tcapital_of\tspain
"""
VALID = "madrid\tlocated_in\tspain\n"
TEST = "lisbon\tcapital_of\tportugal\nspain\tneighbor_of\tportugal\n"


def main():
    with tempfile.TemporaryDirectory(prefix="probe-eval-demo-") as tmp:
        workdir = Path(tmp)
        (workdir / "train.txt").write_text(TRAIN)
        (workdir / "valid.txt").write_text(VALID)
        (workdir / "test.txt").write_text(TEST)
        print(f"wrote a toy dataset to {workdir}\n")

        graph, popularity = load_dataset(workdir)
        print("dataset statistics (training split):")
        print(dataset_stats(graph, popularity).to_text())

        print("\nper-entity popularity (training triples the entity appears in):")
        for label in graph.entity_labels:
            count = popularity[graph.entity_ids[label]]
            marker = " <- unseen in training" if count == 0 else ""
            print(f"  {label:<10} {count}{marker}")

        vocab_path = workdir / "entities.tsv"
        export_vocabulary(graph, vocab_path)
        print(f"\nentity vocabulary exported to {vocab_path}:")
        print(vocab_path.read_text(), end="")
        print("\nscore files must order their score vectors by these ids.")

        # popularity is recomputed identically on every load
        graph2, popularity2 = load_dataset(workdir)
        assert graph2.entity_ids == graph.entity_ids
        assert (popularity2 == popularity).all()
        print("reloading the same files reproduces identical ids and counts.")


if __name__ == "__main__":
    main()
