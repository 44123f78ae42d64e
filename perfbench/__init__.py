"""Repository benchmark: host speed and simulated latency of the Leap simulator.

See README.md in this directory.
"""
