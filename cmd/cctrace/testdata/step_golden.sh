#!/bin/sh
# step_golden.sh regenerates step_golden.txt from the section headers it
# reads on stdin. A header is "=== PROTOCOL N SCRIPT..."; the section body
# under it is the stepper's standard output for that job. Check a build
# against the golden file with
#
#	grep '^=== ' step_golden.txt | sh step_golden.sh ./cctrace step > out.txt
#	cmp out.txt step_golden.txt
set -e
while read -r _ proto n script; do
	echo "=== $proto $n $script"
	"$@" -protocol "$proto" -n "$n" -script "$script" </dev/null
done
