"""Test-only reference implementations the differential tests compare against."""
