"""Hash-partitioned SteMs were removed: every table's state is one SteM.

The e2e harness's ``run.py --matrix`` still imports this; ROADMAP item
8(ii) deletes the module together with that import.
"""


def shutdown_shard_pool() -> bool:
    return False
