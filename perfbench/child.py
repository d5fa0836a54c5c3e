"""Entry point of the benchmark's child processes.

``python3 perfbench/child.py <role> [args...]`` — each role lives in its
workload module (``paper.child``, ``stream.child``). Children start from
a fresh interpreter on purpose: their set-up is what ``setup_s`` times,
and a ``paper`` regeneration must meet cold caches, as a user's
``repro run all`` does.
"""

import sys

import common


def main(argv):
    role, args = argv[0], argv[1:]
    common.enter_checkout()
    if role.startswith("paper"):
        import paper

        return paper.child(role, args)
    if role.startswith("stream"):
        import stream

        return stream.child(role, args)
    raise SystemExit(f"unknown child role {role!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
