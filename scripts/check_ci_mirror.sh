#!/bin/sh
# Guard for the Makefile <-> ci.yml mirror rule (DESIGN.md, "Load & chaos
# testing"): the Makefile's CI_STEPS variable is the single source of
# truth for the per-push pipeline, and the `test` job in
# .github/workflows/ci.yml must run exactly `make <step>` for each step,
# in the same order. This script fails when the two lists diverge, so a
# pipeline edit that touches only one of the files cannot land green.
set -eu
cd "$(dirname "$0")/.."

make_steps=$(sed -n 's/^CI_STEPS := //p' Makefile | tr ' ' '\n' | sed '/^$/d')
if [ -z "$make_steps" ]; then
    echo "check_ci_mirror: no CI_STEPS variable found in Makefile" >&2
    exit 1
fi

# Extract the `run: make <step>` lines of the ci.yml `test` job only
# (other jobs — coverage, soak — have their own make targets and are not
# part of the mirrored list).
yml_steps=$(awk '
    /^  [a-zA-Z0-9_-]+:[ ]*$/ { in_test = ($1 == "test:") }
    in_test && $1 == "run:" && $2 == "make" { print $3 }
' .github/workflows/ci.yml)
if [ -z "$yml_steps" ]; then
    echo "check_ci_mirror: no 'run: make <step>' lines found in the ci.yml test job" >&2
    exit 1
fi

if [ "$make_steps" != "$yml_steps" ]; then
    echo "check_ci_mirror: Makefile CI_STEPS and the ci.yml test job diverged" >&2
    echo "--- Makefile CI_STEPS:" >&2
    echo "$make_steps" >&2
    echo "--- ci.yml test job 'run: make' steps:" >&2
    echo "$yml_steps" >&2
    echo "Edit both files together; see DESIGN.md for the mirror rule." >&2
    exit 1
fi

# The dedicated jobs (coverage, soak, soak-shard, staticcheck, ...) are
# mirrored through the CI_JOBS variable: job:target pairs, where the named
# ci.yml job must contain a `run: make <target>` line. A dedicated job
# added to only one of the files fails here, same as a test-job step.
ci_jobs=$(sed -n 's/^CI_JOBS := //p' Makefile | tr ' ' '\n' | sed '/^$/d')
if [ -z "$ci_jobs" ]; then
    echo "check_ci_mirror: no CI_JOBS variable found in Makefile" >&2
    exit 1
fi
for pair in $ci_jobs; do
    job=${pair%%:*}
    target=${pair#*:}
    job_targets=$(awk -v job="$job" '
        /^  [a-zA-Z0-9_-]+:[ ]*$/ { in_job = ($1 == job ":") }
        in_job && $1 == "run:" && $2 == "make" { print $3 }
    ' .github/workflows/ci.yml)
    found=no
    for t in $job_targets; do
        [ "$t" = "$target" ] && found=yes
    done
    if [ "$found" != "yes" ]; then
        echo "check_ci_mirror: CI_JOBS entry '$pair': ci.yml job '$job' does not run 'make $target'" >&2
        echo "Edit both files together; see DESIGN.md for the mirror rule." >&2
        exit 1
    fi
done

# Reverse direction: every dedicated job actually present in ci.yml must
# be declared in CI_JOBS. Without this, someone can add a ci.yml job with
# no Makefile counterpart — it runs in CI but `make ci` users never see
# it, which is exactly the drift the mirror rule exists to prevent.
yml_jobs=$(awk '
    /^jobs:/ { in_jobs = 1; next }
    /^[a-zA-Z0-9_-]+:/ { in_jobs = 0 }
    in_jobs && /^  [a-zA-Z0-9_-]+:[ ]*$/ { sub(/:$/, "", $1); print $1 }
' .github/workflows/ci.yml)
for job in $yml_jobs; do
    [ "$job" = "test" ] && continue
    found=no
    for pair in $ci_jobs; do
        [ "${pair%%:*}" = "$job" ] && found=yes
    done
    if [ "$found" != "yes" ]; then
        echo "check_ci_mirror: ci.yml job '$job' has no CI_JOBS entry in the Makefile" >&2
        echo "Add '$job:<make-target>' to CI_JOBS (and the target) or remove the job." >&2
        exit 1
    fi
done

echo "ci mirror ok: $(echo "$make_steps" | wc -l | tr -d ' ') steps + $(echo "$ci_jobs" | wc -l | tr -d ' ') dedicated jobs match"
