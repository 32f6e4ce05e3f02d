package iotapp

import (
	"github.com/cheriot-go/cheriot/internal/alloc"
	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/core"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/sched"
)

// UseAfterFree builds the small black-box demo firmware behind
// cheriot-inspect -demo. Its one compartment commits a use-after-free:
// it allocates an object, claims it a second time, stashes the pointer
// in its globals and frees it twice (the claim, then the object). It
// reloads the now-revoked pointer through the load filter and sleeps
// until the revoker's epoch counter shows a completed sweep. Then it
// dereferences the pointer, and the tag-violation trap ends its thread.
func UseAfterFree() *firmware.Image {
	img := core.NewImage("inspect-demo")
	img.AddCompartment(&firmware.Compartment{
		Name: "victim", CodeSize: 512, DataSize: 64,
		AllocCaps: []firmware.AllocCap{{Name: "default", Quota: 4096}},
		Imports: append(alloc.Imports(),
			firmware.Import{Kind: firmware.ImportCall, Target: sched.Name, Entry: sched.EntrySleep},
			firmware.Import{Kind: firmware.ImportMMIO, Target: firmware.DeviceRevoker}),
		Exports: []*firmware.Export{{Name: "main", MinStack: 512,
			Entry: func(ctx api.Context, args []api.Value) []api.Value {
				rev := ctx.MMIO(firmware.DeviceRevoker)
				epoch := rev.WithAddress(rev.Base() + hw.RevokerEpoch)
				start := ctx.Load32(epoch)
				cl := alloc.Client{}
				obj, errno := cl.Malloc(ctx, 64)
				if errno != api.OK {
					return nil
				}
				if cl.Claim(ctx, obj) != api.OK {
					return nil
				}
				ctx.Store32(obj, 0xDEAD)
				ctx.StoreCap(ctx.Globals(), obj)
				if cl.Free(ctx, obj) != api.OK || cl.Free(ctx, obj) != api.OK {
					return nil
				}
				stale := ctx.LoadCap(ctx.Globals()) // the load filter untags it
				// A sweep completes each time the epoch turns even.
				for i := 0; i < 64 && ctx.Load32(epoch)/2 == start/2; i++ {
					_, _ = ctx.Call(sched.Name, sched.EntrySleep, api.W(200_000))
				}
				ctx.Load32(stale) // tag violation: the black box snapshots here
				return nil
			}}},
	})
	img.AddThread(&firmware.Thread{Name: "t", Compartment: "victim", Entry: "main",
		Priority: 1, StackSize: 2048, TrustedStackFrames: 8})
	return img
}
