#!/bin/sh
# "Least code" as a ratchet: prints the two sizes ROADMAP aim 2 counts — the
# non-test Go lines outside bench/ (the series DESIGN.md has reported since
# PR 14: find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs
# wc -l, so the generated kernels count like everything else) and the field
# counts of the nine configuration structs — and fails when one exceeds its
# line in .github/line-budget.txt.  A PR that shrinks the code lowers the
# budget in the same diff; one that grows it has to raise the budget where a
# reviewer sees it.  POSIX sh + grep/sed/find, like check-orphans.sh:
#   sh .github/line-budget.sh
set -eu

cd "$(dirname "$0")/.."

budget=.github/line-budget.txt
status=0

# check NAME VALUE: print the measurement, compare it with the budget line.
check() {
    allowed=$(sed -n "s/^$1 //p" "$budget")
    echo "$1 $2 (budget ${allowed:-missing})"
    if [ -z "$allowed" ] || [ "$2" -gt "$allowed" ]; then
        echo "$1: $2 exceeds the budget in $budget" >&2
        status=1
    fi
}

# fields FILE TYPE: the number of fields `type TYPE struct` declares in FILE —
# one per name of a `A, B T` line, one per embedded type.
fields() {
    sed -n "/^type $2 struct {/,/^}/p" "$1" |
        sed -e '1d' -e '$d' -e 's|//.*||' -e 's/`.*//' -e 's/[[:space:]]*$//' \
            -e 's/^[[:space:]]*//' -e '/^$/d' \
            -e 's/^\([A-Za-z0-9_, ]*[A-Za-z0-9_]\) .*/\1/' -e 's/, /\
/g' | grep -c .
}

check go_lines "$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' \
    -exec cat {} + | grep -c '')"
check Config "$(fields config.go Config)"
check AnalysisConfig "$(fields config.go AnalysisConfig)"
check ClusterRunOptions "$(fields cluster.go ClusterRunOptions)"
check cluster.Spec "$(fields internal/cluster/cluster.go Spec)"
check cluster.SuperviseOptions "$(fields internal/cluster/supervisor.go SuperviseOptions)"
check core.TreeConfig "$(fields internal/core/solver.go TreeConfig)"
check core.DistributedConfig "$(fields internal/core/distributed.go DistributedConfig)"
check comm.TCPOptions "$(fields internal/comm/tcp.go TCPOptions)"
check serve.Options "$(fields internal/serve/serve.go Options)"

if [ "$status" -ne 0 ]; then
    echo "line budget exceeded: delete something, or raise $budget in this diff" >&2
fi
exit $status
