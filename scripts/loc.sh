#!/bin/sh
# Prints the workspace's Rust line count split as `non-test N test M`,
# then one `<crate> non-test N test M` line per crate: `crates/<name>` is
# `<name>`, and the root package (`src`, `tests`, `examples`) is
# `reuselens`. Files under a `tests/` directory count as test; in any
# other file, the lines from the first `#[cfg(test)]` to the end count as
# test. `target/` and the separate `perfbench/` workspace are not counted.
# Usage: scripts/loc.sh   (from anywhere inside the repository)
cd "$(dirname "$0")/.." || exit 1
find crates src tests examples -name '*.rs' -not -path '*/target/*' 2>/dev/null | sort |
    while read -r f; do
        case "$f" in
        crates/*) c=${f#crates/} c=${c%%/*} ;;
        *) c=reuselens ;;
        esac
        case "$f" in
        tests/* | */tests/*) printf '%s 0 %s\n' "$c" "$(wc -l <"$f")" ;;
        *) awk -v c="$c" '/^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 } { if (t) m++; else n++ }
                END { print c, n + 0, m + 0 }' "$f" ;;
        esac
    done | awk '{ n += $2; m += $3; cn[$1] += $2; cm[$1] += $3 }
        END {
            print "non-test", n + 0, "test", m + 0
            for (c in cn) print c, "non-test", cn[c], "test", cm[c] | "sort"
        }'
