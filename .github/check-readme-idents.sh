#!/bin/sh
# Checks that every back-quoted exported Go identifier in README.md still
# names something in the tree, so a rename or deletion cannot leave the
# README describing an API that is gone.  A span counts when it is a Go
# identifier or a dotted chain of them, optionally ending in "()" —
# `Config.Validate`, `sim.Analyze()`, `core.RankSolver` — and each component
# that starts with an upper-case letter and contains a lower-case one is
# checked (so file names like `BENCHMARK.json` and signal names like `SIGINT`
# are not).  A component passes when it occurs as a whole word on a
# non-comment line of a tracked .go file.  POSIX sh + git/grep/sed, like the
# other checks:  sh .github/check-readme-idents.sh
set -eu

cd "$(dirname "$0")/.."

status=0
for span in $(grep -oE '`[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*(\(\))?`' README.md |
        sed -e 's/`//g' -e 's/()$//' | sort -u); do
    for id in $(echo "$span" | tr '.' ' '); do
        case "$id" in
            [A-Z]*[a-z]*) ;;
            *) continue ;;
        esac
        if ! git grep -hw -e "$id" -- '*.go' | grep -qv '^[[:space:]]*//'; then
            echo "README.md: \`$span\` names nothing in the Go tree ($id)" >&2
            status=1
        fi
    done
done
if [ "$status" -ne 0 ]; then
    echo "README identifier check failed" >&2
fi
exit $status
