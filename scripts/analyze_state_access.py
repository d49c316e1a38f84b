#!/usr/bin/env python3
"""Static state-access analyzer for the middlebox crate.

The chain's replication contract is keyed by *state-key prefixes*: every
middlebox writes only under its declared prefixes (``mon:``, ``gen:``,
``ids:``, ...), and ``DECLARED_STATE_PREFIXES`` in
``crates/mbox/src/spec_lang.rs`` is the single source of truth the static
chain-spec verifier uses to decide which stages are stateful. If a
middlebox grows a write under an undeclared prefix, the verifier can pass
a chain whose new state silently escapes the replication groups — exactly
the class of bug static verification exists to rule out.

This script closes the loop by *deriving* each middlebox's read/write set
from its source:

1. Parse ``DECLARED_STATE_PREFIXES`` out of spec_lang.rs.
2. For each middlebox module, collect every state-key expression:
   ``format!("...")`` strings and ``b"..."``/``"..."`` literals shaped
   like ``prefix:rest``, resolving the NAT modules' ``const TAG`` and the
   shared ``forward_key/reverse_key/allocator_key(TAG, ...)`` helpers.
3. Classify each key as a read (``txn.read*``/``peek*``) or a write
   (``txn.write*``/``txn.delete``) from the statement it appears in.
4. Fail if any derived access uses an undeclared prefix, if a declared
   prefix is never used (stale table), or if two middleboxes share a
   prefix (ownership must be exclusive for recovery to fetch per-group).

Test blocks (``#[cfg(test)]``) are stripped the same way
``forbidden_patterns.py`` does. Exit 0 = contract holds; 1 = violations.
``--self-test`` runs the detector against embedded bad fixtures.
``--json`` emits the derived access sets as machine-readable JSON on
stdout (one object per middlebox: declared / reads / writes, all sorted)
— the input contract of ``analyze_migration.py``, which checks the
migration manifests against exactly these sets.
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_LANG = ROOT / "crates" / "mbox" / "src" / "spec_lang.rs"

# Middlebox name -> the source files its state accesses live in. The NAT
# helpers in nat/mod.rs are shared; their prefixes come from the caller's
# TAG const, so each NAT module owns its helper-derived keys.
MODULES = {
    "monitor": ["crates/mbox/src/monitor.rs"],
    "gen": ["crates/mbox/src/gen.rs"],
    "ids": ["crates/mbox/src/ids.rs"],
    "lb": ["crates/mbox/src/lb.rs"],
    "mazu_nat": ["crates/mbox/src/nat/mazu.rs"],
    "simple_nat": ["crates/mbox/src/nat/simple.rs"],
    "firewall": ["crates/mbox/src/firewall.rs"],
    "passthrough": [],  # built from MbSpec::Passthrough; no module, no state
}

# The shared NAT key constructors: calling one with the module's TAG
# derives a key under "<TAG>:".
NAT_HELPERS = ("forward_key", "reverse_key", "allocator_key")

READ_CALLS = re.compile(r"\b(?:txn\s*\.\s*read(?:_u64)?|peek(?:_u64)?)\s*\(")
WRITE_CALLS = re.compile(r"\btxn\s*\.\s*(?:write(?:_u64)?|delete)\s*\(")
KEY_LITERAL = re.compile(r'b?"([a-z_]+):[^"]*"')


def strip_test_blocks(lines):
    """Yields (lineno, line) outside #[cfg(test)] item blocks."""
    i, n = 0, len(lines)
    while i < n:
        if re.search(r"#\[cfg\(test\)\]", lines[i]):
            depth, opened = 0, False
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
        yield i + 1, lines[i]
        i += 1


def parse_declared(spec_lang_text):
    """The name -> prefixes table from DECLARED_STATE_PREFIXES."""
    m = re.search(
        r"DECLARED_STATE_PREFIXES[^=]*=\s*&\[(.*?)\];", spec_lang_text, re.S
    )
    if not m:
        raise SystemExit(
            "analyze_state_access: DECLARED_STATE_PREFIXES not found in "
            f"{SPEC_LANG.relative_to(ROOT)} — the analyzer and the static "
            "verifier have lost their shared table"
        )
    declared = {}
    for name, prefixes in re.findall(
        r'\(\s*"(\w+)"\s*,\s*&\[(.*?)\]\s*\)', m.group(1), re.S
    ):
        declared[name] = set(re.findall(r'"([^"]+)"', prefixes))
    return declared


def derive_accesses(text):
    """-> (reads, writes): sets of key prefixes derived from one module.

    Resolution is three-layered: literal prefixes on the access line
    itself, `let k = ...` bindings carrying a prefix into a later txn
    call, and a module-level symbol table mapping key-constructor
    functions and consts (`fn conn_key`, `const ALERTS_KEY`) to the
    prefixes in their bodies — so `txn.read(&Self::ports_key(src))`
    attributes `ids:` even though the literal lives in the helper. The
    classification is intentionally conservative: an undeclared prefix in
    either set is a violation.
    """
    lines = text.splitlines()
    tag = None
    tag_m = re.search(r'const TAG:\s*&str\s*=\s*"(\w+)"', text)
    if tag_m:
        tag = tag_m.group(1)

    def prefixes_in(segment):
        found = set()
        for lit in KEY_LITERAL.findall(segment):
            found.add(lit + ":")
        # format! strings interpolating the TAG const.
        if tag:
            for _ in re.findall(r'"\{TAG\}:', segment):
                found.add(tag + ":")
            for helper in NAT_HELPERS:
                if re.search(rf"\b{helper}\s*\(\s*TAG\b", segment):
                    found.add(tag + ":")
        return found

    code_lines = list(strip_test_blocks(lines))

    # Pass 1 — symbol table: key-constructor fns (prefixes anywhere in
    # their brace-matched body) and consts with a key literal.
    symbols = {}
    i = 0
    while i < len(code_lines):
        _, line = code_lines[i]
        code = line.split("//")[0]
        cm = re.match(r"\s*(?:pub\s+)?const\s+(\w+)\s*:", code)
        if cm:
            pf = prefixes_in(code)
            if pf:
                symbols[cm.group(1)] = pf
            i += 1
            continue
        fm = re.match(r"\s*(?:pub\s+)?(?:\w+\s+)*fn\s+(\w+)", code)
        if fm:
            depth, opened, pf = 0, False, set()
            while i < len(code_lines):
                _, body_line = code_lines[i]
                body_code = body_line.split("//")[0]
                pf |= prefixes_in(body_code)
                for ch in body_code:
                    if ch == "{":
                        depth += 1
                        opened = True
                    elif ch == "}":
                        depth -= 1
                if opened and depth <= 0:
                    break
                i += 1
            if pf:
                symbols[fm.group(1)] = pf
        i += 1

    # Pass 2 — classify access sites.
    reads, writes = set(), set()
    bindings = {}

    def resolve(code):
        used = prefixes_in(code)
        for name, pf in symbols.items():
            if re.search(rf"\b{name}\b", code):
                used |= pf
        return used

    for _, line in code_lines:
        code = line.split("//")[0]
        found = resolve(code)
        bind = re.match(r"\s*let\s+(?:mut\s+)?(\w+)\s*=", code)
        if bind and found:
            bindings[bind.group(1)] = set(found)
        is_read = READ_CALLS.search(code)
        is_write = WRITE_CALLS.search(code)
        if not (is_read or is_write):
            continue
        # Prefixes resolvable on the access line itself, plus any named
        # binding passed into the call.
        used = set(found)
        for name, pf in bindings.items():
            if re.search(rf"\(\s*&?\s*{name}\b", code) or re.search(
                rf",\s*&?\s*{name}\b", code
            ):
                used |= pf
        if is_write:
            writes |= used
        else:
            reads |= used
    return reads, writes


def check(declared, modules_text):
    """-> list of violation strings for the given {name: [file texts]}."""
    violations = []
    owners = {}
    for name, texts in modules_text.items():
        decl = declared.get(name)
        if decl is None:
            violations.append(
                f"{name}: middlebox has no row in DECLARED_STATE_PREFIXES "
                f"({SPEC_LANG.relative_to(ROOT)}); add one (use an empty "
                "prefix list for stateless stages)"
            )
            continue
        reads, writes = set(), set()
        for text in texts:
            r, w = derive_accesses(text)
            reads |= r
            writes |= w
        for p in sorted(writes - decl):
            violations.append(
                f"{name}: writes state under undeclared prefix `{p}` — "
                f"the static verifier cannot see this state, so a chain "
                f"spec could pass verification while `{p}` updates escape "
                f"the replication groups; declare `{p}` for `{name}` in "
                "DECLARED_STATE_PREFIXES"
            )
        for p in sorted(reads - writes - decl):
            violations.append(
                f"{name}: reads state under undeclared prefix `{p}` — "
                f"either it belongs to another middlebox (cross-stage "
                f"state sharing breaks per-group recovery) or the "
                "declaration table is stale"
            )
        for p in sorted(decl - writes - reads):
            violations.append(
                f"{name}: declares prefix `{p}` but no source access uses "
                "it — remove the stale declaration or fix the analyzer's "
                "module map"
            )
        for p in writes | decl:
            if p in owners and owners[p] != name:
                violations.append(
                    f"prefix `{p}` claimed by both `{owners[p]}` and "
                    f"`{name}`: ownership must be exclusive, or recovery "
                    "cannot attribute the partition to one replication "
                    "group"
                )
            owners[p] = name
    return violations


def self_test():
    """The detector must catch each planted contract violation."""
    declared = {"monitor": {"mon:"}, "gen": {"gen:"}}
    # 1. Undeclared write prefix.
    bad_write = 'let k = format!("rogue:w{}", w);\ntxn.write(k, v)?;'
    # 2. Cross-middlebox read.
    bad_read = 'let c = txn.read_u64(b"mon:packets:g0")?;'
    # 3. Stale declaration (no access at all).
    stale = "fn process() {}"
    cases = [
        ({"monitor": [bad_write]}, "undeclared prefix `rogue:`"),
        ({"gen": ['txn.write(format!("gen:w0"), v)?;\n' + bad_read]},
         "reads state under undeclared prefix `mon:`"),
        ({"monitor": [stale]}, "declares prefix `mon:` but no source"),
    ]
    for modules_text, expect in cases:
        got = check(declared, modules_text)
        assert any(expect in v for v in got), (
            f"self-test: expected a violation containing {expect!r}, "
            f"got {got!r}"
        )
    # And a clean module passes.
    clean = {
        "monitor": [
            'let key = format!("mon:packets:g{g}");\n'
            "let c = txn.read_u64(&key)?;\n"
            "txn.write_u64(key, c + 1)?;"
        ]
    }
    got = check({"monitor": {"mon:"}}, clean)
    assert not got, f"self-test: clean module flagged: {got!r}"

    print("analyze_state_access: self-test ok")


def access_report(declared, modules_text):
    """The machine-readable per-middlebox access sets for ``--json``."""
    report = {}
    for name, texts in modules_text.items():
        reads, writes = set(), set()
        for text in texts:
            r, w = derive_accesses(text)
            reads |= r
            writes |= w
        report[name] = {
            "declared": sorted(declared.get(name, set())),
            "reads": sorted(reads),
            "writes": sorted(writes),
        }
    return report


def main():
    if "--self-test" in sys.argv:
        self_test()
        return 0
    declared = parse_declared(SPEC_LANG.read_text())
    modules_text = {}
    for name, rels in MODULES.items():
        texts = []
        for rel in rels:
            path = ROOT / rel
            if not path.exists():
                print(f"{name}: module {rel} missing (analyzer map stale)")
                return 1
            texts.append(path.read_text())
        modules_text[name] = texts
    if "--json" in sys.argv:
        json.dump(access_report(declared, modules_text), sys.stdout, indent=2)
        print()
        return 0
    violations = check(declared, modules_text)
    if violations:
        for v in violations:
            print(f"analyze_state_access: {v}")
        print(f"analyze_state_access: {len(violations)} violation(s)")
        return 1
    stateful = sum(1 for p in declared.values() if p)
    print(
        f"analyze_state_access: clean — {len(declared)} middleboxes, "
        f"{stateful} stateful, declarations match derived access sets"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
