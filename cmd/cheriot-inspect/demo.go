package main

import (
	"fmt"

	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/flightrec"
	"github.com/cheriot-go/cheriot/internal/iotapp"
)

// demoDump boots the use-after-free demo firmware (iotapp.UseAfterFree)
// with the flight recorder on and returns the resulting black box. The
// crash report's provenance chain identifies the allocating compartment
// and the sweep that invalidated the object.
func demoDump() (*flightrec.Dump, error) {
	sys, err := core.Boot(iotapp.UseAfterFree())
	if err != nil {
		return nil, fmt.Errorf("demo boot: %w", err)
	}
	defer sys.Shutdown()
	sys.EnableFlightRecorder(512)
	if err := sys.Run(nil); err != nil {
		return nil, fmt.Errorf("demo run: %w", err)
	}
	d := sys.FlightDump()
	return &d, nil
}
