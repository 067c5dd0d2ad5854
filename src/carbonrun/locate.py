"""Decide which region prices the measurement.

Resolution order: explicit --location value, then the ENERGYUSAGE_REGION
environment variable, then IP geolocation, then a fixed default aggregate.
The first two are user intent, so an unknown name there is an error; the
geolocation rung degrades silently to the default because network trouble
should never fail a measurement.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import urllib.request
from enum import Enum
from typing import NamedTuple

from .griddata import DatasetSnapshot, RegionGroup, RegionRecord, UnknownRegion

ENV_REGION = "ENERGYUSAGE_REGION"
GEO_ENDPOINT = "https://get.geojs.io"
GEO_TIMEOUT_S = 3.0
GEO_MAX_BYTES = 64 * 1024  # a longer reply is no geolocation answer

DEFAULT_CHOICES = {
    "world": "world-average",
    "us": "us-average",
    "europe": "europe-average",
}


class ResolutionMethod(Enum):
    EXPLICIT = "explicit"
    ENVIRONMENT = "environment"
    GEOLOCATION = "geolocation"
    DEFAULT_FALLBACK = "default_fallback"


class LocationResolution(NamedTuple):
    region: RegionRecord
    method: ResolutionMethod
    detail: str


def resolve_location(
    snapshot: DatasetSnapshot,
    explicit: str | None = None,
    default_choice: str = "world",
    offline: bool = False,
    endpoint: str = GEO_ENDPOINT,
    timeout_s: float = GEO_TIMEOUT_S,
    environ: dict | None = None,
) -> LocationResolution:
    env = os.environ if environ is None else environ
    if default_choice not in DEFAULT_CHOICES:
        raise ValueError(
            f"default region must be one of {sorted(DEFAULT_CHOICES)}, "
            f"got {default_choice!r}"
        )

    if explicit is not None:
        region = snapshot.lookup(explicit)  # UnknownRegion propagates
        return LocationResolution(
            region, ResolutionMethod.EXPLICIT, f"--location {explicit}"
        )

    env_value = env.get(ENV_REGION)
    if env_value:
        region = snapshot.lookup(env_value)
        return LocationResolution(
            region, ResolutionMethod.ENVIRONMENT, f"{ENV_REGION}={env_value}"
        )

    if not offline:
        resolution = _geolocate(snapshot, endpoint, timeout_s)
        if resolution is not None:
            return resolution

    region = snapshot.lookup(DEFAULT_CHOICES[default_choice])
    reason = "geolocation disabled" if offline else "geolocation unavailable"
    return LocationResolution(
        region,
        ResolutionMethod.DEFAULT_FALLBACK,
        f"{reason}; assuming {region.display_name}",
    )


def _geolocate(
    snapshot: DatasetSnapshot, endpoint: str, timeout_s: float
) -> LocationResolution | None:
    """Map the caller's public IP to a snapshot region, or None on failure.

    The socket timeout bounds each read and an `ITIMER_REAL` alarm the
    whole request, connect to last byte, so a reply that trickles in cannot
    hold the run.  The alarm needs the main thread, where carbonrun resolves
    before its child starts, and cannot cut short the name lookup.
    """
    def expire(signum, frame):
        raise TimeoutError

    url = endpoint.rstrip("/") + "/v1/ip/geo.json"
    previous = signal.signal(signal.SIGALRM, expire)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout_s)
            # a status >= 400 raises HTTPError, an OSError; a malformed reply
            # raises HTTPException, which urllib does not wrap
            with urllib.request.urlopen(url, timeout=timeout_s) as response:
                body = response.read(GEO_MAX_BYTES + 1)
                # a capped read returns a body cut short of its Content-Length;
                # reading on raises IncompleteRead
                if len(body) > GEO_MAX_BYTES or response.read():
                    return None
            payload = json.loads(body)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except (OSError, http.client.HTTPException, ValueError):
        # TimeoutError, the alarm's, is an OSError; it can also fire
        # before `setitimer` above disarms it, never after
        return None
    finally:
        signal.signal(signal.SIGALRM, previous)
    if not isinstance(payload, dict):
        return None
    country_code = str(payload.get("country_code") or "").strip()
    if not country_code:
        return None

    if country_code.upper() == "US":
        # Prefer the state; an unrecognized or missing state name still
        # pins the country, so fall back to the US aggregate.
        state = str(payload.get("region") or "").strip()
        if state:
            try:
                region = snapshot.lookup(state)
            except UnknownRegion:
                region = None
            if region is not None and region.group is RegionGroup.US:
                return LocationResolution(
                    region,
                    ResolutionMethod.GEOLOCATION,
                    f"IP geolocation: {state}, US",
                )
        region = snapshot.lookup("us-average")
        return LocationResolution(
            region, ResolutionMethod.GEOLOCATION, "IP geolocation: US (no state)"
        )

    try:
        region = snapshot.lookup(country_code)
    except UnknownRegion:
        return None
    if region.group not in (RegionGroup.EUROPE, RegionGroup.GLOBAL):
        return None
    return LocationResolution(
        region,
        ResolutionMethod.GEOLOCATION,
        f"IP geolocation: {region.display_name}",
    )
