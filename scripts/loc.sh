#!/bin/sh
# Prints the workspace's Rust line count split as `non-test N test M`.
# Files under a `tests/` directory count as test; in any other file, the
# lines from the first `#[cfg(test)]` to the end count as test. `target/`
# and the separate `perfbench/` workspace are not counted.
# Usage: scripts/loc.sh   (from anywhere inside the repository)
cd "$(dirname "$0")/.." || exit 1
find crates src tests examples -name '*.rs' -not -path '*/target/*' 2>/dev/null |
    while read -r f; do
        case "$f" in
        tests/* | */tests/*) printf '0 %s\n' "$(wc -l <"$f")" ;;
        *) awk '/^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 } { if (t) m++; else n++ }
                END { print n + 0, m + 0 }' "$f" ;;
        esac
    done | awk '{ n += $1; m += $2 } END { print "non-test", n, "test", m }'
