"""R8 negative fixture: the streaming/sampler taxonomy names, used well."""


def drain(obs, registry):
    registry.counter("campaign.stream.events").add(1)
    registry.counter("obs.events.published").add(1)
    registry.counter("obs.events.dropped").add(1)
    registry.counter("obs.events.heartbeats").add(1)


def sample(obs, registry):
    registry.counter("obs.sampler.samples").add(1)
    registry.counter("campaign.jobs.timeouts").add(1)
