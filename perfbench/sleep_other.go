//go:build !linux

package main

import "time"

func pinPreciseSleep() {}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
