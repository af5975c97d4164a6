include Cm_obs.Obs
