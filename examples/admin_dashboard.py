"""System-administration dashboard example (the paper's admin tab).

Run with ``python examples/admin_dashboard.py``.  Builds the influenza study
and prints the administrative reports the paper's third tab would show:
integrity status, index economy, orphan detection, per-object annotation
leaderboard, and per-creator activity — then serves the study from a temporary
root (checksummed snapshot plus write-ahead log) and recovers it to show that
persistence round-trips.
"""

import tempfile

from repro.service import GraphittiService
from repro.workloads import build_influenza_instance


def main() -> None:
    g = build_influenza_instance()
    admin = g.administrator()

    print("=== integrity ===")
    print("  ", admin.check_integrity().summary())

    print("\n=== index economy (paper: 'keep the number of indexes small') ===")
    for key, value in admin.index_economy().items():
        print(f"  {key}: {value}")

    print("\n=== orphan data objects (registered but never annotated) ===")
    print("  ", admin.orphan_objects() or "(none)")

    print("\n=== annotation leaderboard (most-annotated objects) ===")
    for object_id, count in admin.annotation_leaderboard(top=5):
        print(f"  {object_id}: {count} referent(s)")

    print("\n=== creator activity ===")
    for creator, count in sorted(admin.creator_activity().items()):
        print(f"  {creator}: {count} annotation(s)")

    print("\n=== serve / recover round-trip ===")
    with tempfile.TemporaryDirectory() as root:
        GraphittiService.open(root, manager_factory=lambda: g).close()
        with GraphittiService.recover(root) as reloaded:
            print(f"  served from a root, recovered {reloaded.annotation_count} annotations")
            print("  recovered integrity:", reloaded.check_integrity().summary())
            print("  recovered query 'cleavage':", reloaded.search_by_keyword("cleavage"))


if __name__ == "__main__":
    main()
