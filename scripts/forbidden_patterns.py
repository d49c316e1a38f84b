#!/usr/bin/env python3
"""Forbidden-pattern gate for the concurrency core.

Greps can't see context; this script can see just enough. Each rule is
motivated by a past or feared class of concurrency bug:

1. ``std-mutex``   — ``std::sync::Mutex``/``RwLock`` outside approved
                     modules. Production code must use ``parking_lot``
                     (no poisoning: a panicking packet thread must not
                     wedge every other thread that touches the lock).
2. ``relaxed-flag``— ``Ordering::Relaxed`` on an ``AtomicBool``. Boolean
                     flags are cross-thread signals (wounded, shutdown,
                     recording, ...) and must use SeqCst/Acquire/Release;
                     Relaxed is reserved for counters where only the
                     eventual total matters.
3. ``hot-unwrap``  — ``.unwrap()`` in the packet hot path: the parsers
                     (``crates/packet/src``) and the data-plane files that
                     carry a frame from one receive to the next send
                     (``HOT_PATH_FILES``). Parsers handle adversarial
                     bytes, and a panic on a data-plane thread silently
                     stops a server's packet loop; use
                     ``.expect("why this cannot fail")`` or propagate the
                     error.
4. ``allow-audit`` — ``#[allow(...)]`` in the protocol crates
                     (``crates/{core,stm,orch}``) without an ``// audit:``
                     justification on the same line or the line above.
                     Suppressed lints in replication code have hidden real
                     bugs before; every suppression must say what was
                     checked by hand.
5. ``thread-sleep``— ``std::thread::sleep`` in protocol code outside the
                     deterministic testkit. Sleeps in the packet/recovery
                     paths paper over ordering bugs the model checker
                     exists to find; use channel timeouts or the timer
                     steps. Modeled delays (WAN RTT emulation, heartbeat
                     cadence) are exempt via ``// forbidden-ok:
                     thread-sleep`` with the reason alongside.
6. ``sock-unwrap`` — ``.unwrap()`` in the socket transport
                     (``crates/net/src/sock.rs``). Every syscall there
                     can fail at any moment — a peer process is entitled
                     to die mid-write — and an unwrap turns a routine
                     connection reset into a dead reader thread. Handle
                     the error (redial, drop the conn, surface
                     ``Disconnected``) or ``.expect()`` with a proof.

Test code is exempt: ``#[cfg(test)]`` blocks are stripped by brace
matching, and ``tests/``, ``benches/``, ``examples/`` trees are skipped.
``// forbidden-ok: <rule>`` on the flagged line or the line directly
above exempts that line from <rule> (use sparingly; say why alongside).

Exit status 0 = clean, 1 = violations (listed on stdout).
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Modules allowed to use std::sync primitives (e.g. for Condvar pairing
# or poisoning semantics they actually want). Currently empty on purpose.
STD_MUTEX_ALLOWED: set = set()

# vendor/ holds offline API stand-ins; the parking_lot shim *wraps*
# std::sync::Mutex by design, so the std-mutex rule does not apply there.
SKIP_DIRS = {"target", ".git", "vendor"}
SKIP_PARTS = {"tests", "benches", "examples"}


def rust_sources():
    for path in sorted(ROOT.rglob("*.rs")):
        rel = path.relative_to(ROOT)
        parts = set(rel.parts)
        if parts & SKIP_DIRS or parts & SKIP_PARTS:
            continue
        yield rel


def strip_test_blocks(lines):
    """Yields (lineno, line) for lines outside #[cfg(test)] { ... } blocks."""
    i = 0
    n = len(lines)
    while i < n:
        line = lines[i]
        if re.search(r"#\[cfg\(test\)\]", line):
            # Skip to the end of the attached item by brace matching.
            depth = 0
            opened = False
            while i < n:
                for ch in lines[i]:
                    if ch == "{":
                        depth += 1
                        opened = True
                    elif ch == "}":
                        depth -= 1
                if opened and depth <= 0:
                    break
                i += 1
            i += 1
            continue
        yield i + 1, line
        i += 1


def atomic_bool_fields(text):
    """Names declared as AtomicBool anywhere in the file."""
    return set(re.findall(r"(\w+)\s*:\s*(?:\w+::)*AtomicBool\b", text))


# Data-plane files outside crates/packet that the hot-unwrap rule covers.
HOT_PATH_FILES = {
    "crates/core/src/dataplane.rs",
    "crates/core/src/replica.rs",
    "crates/core/src/forwarder.rs",
    "crates/core/src/buffer.rs",
    "crates/net/src/reliable.rs",
    "crates/net/src/link.rs",
    "crates/net/src/nic.rs",
    "crates/net/src/transport.rs",
}

PROTOCOL_CRATES = {
    ("crates", "core", "src"),
    ("crates", "stm", "src"),
    ("crates", "orch", "src"),
}


def check_file(rel, violations):
    text = (ROOT / rel).read_text()
    lines = text.splitlines()
    flags = atomic_bool_fields(text)
    in_packet_hot_path = (
        rel.parts[:3] == ("crates", "packet", "src") or rel.as_posix() in HOT_PATH_FILES
    )
    in_protocol_crate = rel.parts[:3] in PROTOCOL_CRATES
    in_sock_module = rel.parts[:3] == ("crates", "net", "src") and rel.name == "sock.rs"
    in_testkit = rel.name == "testkit.rs"

    prev = ""
    for lineno, line in strip_test_blocks(lines):
        code = line.split("//")[0] if "//" in line else line

        def exempt(rule):
            # Annotation accepted on the flagged line or the line above
            # (rationale comments usually take a full line of their own).
            return f"forbidden-ok: {rule}" in line or f"forbidden-ok: {rule}" in prev

        if (
            re.search(r"\bstd::sync::(Mutex|RwLock)\b", code)
            and str(rel) not in STD_MUTEX_ALLOWED
            and not exempt("std-mutex")
        ):
            violations.append((rel, lineno, "std-mutex", line.strip()))

        if re.search(r"Ordering::Relaxed", code) and not exempt("relaxed-flag"):
            recv = re.findall(
                r"(\w+)\s*\.\s*(?:load|store|swap|fetch_\w+|compare_exchange\w*)\s*\(",
                code,
            )
            if any(r in flags for r in recv):
                violations.append((rel, lineno, "relaxed-flag", line.strip()))

        if (
            in_packet_hot_path
            and re.search(r"\.unwrap\(\)", code)
            and not exempt("hot-unwrap")
        ):
            violations.append((rel, lineno, "hot-unwrap", line.strip()))

        if (
            in_protocol_crate
            and re.search(r"#\[allow\(", code)
            and "// audit:" not in line
            and "// audit:" not in prev
            and not exempt("allow-audit")
        ):
            violations.append((rel, lineno, "allow-audit", line.strip()))

        if (
            in_protocol_crate
            and not in_testkit
            and re.search(r"\bthread\s*::\s*sleep\b", code)
            and not exempt("thread-sleep")
        ):
            violations.append((rel, lineno, "thread-sleep", line.strip()))

        # The old regex-only ``block-on`` rule lived here; it moved to
        # ``analyze_async_safety.py``, which still forbids ``block_on`` in
        # the data-plane crates but does it brace/await-aware, alongside
        # the lock-order and blocking-reachability analyses.

        if (
            in_sock_module
            and re.search(r"\.unwrap\(\)", code)
            and not exempt("sock-unwrap")
        ):
            violations.append((rel, lineno, "sock-unwrap", line.strip()))

        prev = line


def main():
    violations = []
    count = 0
    for rel in rust_sources():
        count += 1
        check_file(rel, violations)
    if violations:
        for rel, lineno, rule, line in violations:
            print(f"{rel}:{lineno}: [{rule}] {line}")
        print(f"forbidden_patterns: {len(violations)} violation(s) in {count} files")
        return 1
    print(f"forbidden_patterns: clean ({count} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
