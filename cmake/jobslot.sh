#!/bin/sh
# Runs a compile or link command while holding one of a fixed number of
# lock slots, so at most that many run at once however many jobs the build
# tool starts. The top-level CMakeLists.txt installs it as the rule launcher
# for Makefile generators. A slot is an flock(1) lock on a file; the command
# inherits the lock's descriptor, and the kernel drops the lock when the
# command exits, crashes or is killed, so no slot can leak.
#
# usage: sh jobslot.sh <slot-dir> <slots> <command> [args...]
dir=$1
slots=$2
shift 2
mkdir -p "$dir" || exec "$@"

# Takes the first free slot and runs the command in it; returns if none is
# free.
take_free_slot() {
  i=0
  while [ "$i" -lt "$slots" ]; do
    exec 9>"$dir/slot$i"
    if flock -n 9; then
      exec 8>&- "$@"
    fi
    i=$((i + 1))
  done
}

take_free_slot "$@"
# Every slot is busy. Waiters queue on one lock, and only its holder polls
# the slots, so a freed slot is taken within 0.1 s at the cost of one
# poller, however many jobs wait.
exec 8>"$dir/queue"
flock 8
while :; do
  take_free_slot "$@"
  sleep 0.1 2>/dev/null || sleep 1
done
