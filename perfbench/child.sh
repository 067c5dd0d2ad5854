# The measured child: bash perfbench/child.sh OUT SECONDS EXIT_CODE [FLAG]
#
# Writes "start end cpu_ns setup_ns" to OUT: its own start and end (wall
# clock, microseconds), the CPU nanoseconds its parent -- the wrapper -- spent
# between the two, summed over the wrapper threads alive at the end, and the
# wrapper's CPU nanoseconds before the start, summed over the threads alive
# then.  A thread that exits before the child does is not counted in cpu_ns.  Then it appends
# the output of `times`: the child's own CPU, which the wrapper's rusage
# includes.  Between start and end it sleeps SECONDS, so the child itself
# costs almost no CPU.  With FLAG it writes its start to FLAG.start and its
# end to FLAG.end, which tell the counter writer when to draw busy power.  It
# exits with EXIT_CODE so exit-code pass-through shows.

out=$1 seconds=$2 code=$3 flag=${4:-}
t0=$EPOCHREALTIME
[ -n "$flag" ] && echo "$t0" > "$flag.start"

declare -A first
setup_ns=0
for f in /proc/$PPID/task/*/schedstat; do
    # a thread may exit between the glob and the read
    read -r ns rest 2>/dev/null < "$f" && first[$f]=$ns && setup_ns=$((setup_ns + ns))
done

sleep "$seconds"

cpu_ns=0
for f in /proc/$PPID/task/*/schedstat; do
    read -r ns rest 2>/dev/null < "$f" && cpu_ns=$((cpu_ns + ns - ${first[$f]:-0}))
done
t1=$EPOCHREALTIME
[ -n "$flag" ] && echo "$t1" > "$flag.end"
printf '%s %s %s %s\n' "$t0" "$t1" "$cpu_ns" "$setup_ns" > "$out"
times >> "$out"
exit "$code"
